package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the mcm command: with
// MCM_TEST_MAIN=1 in its environment it runs main on its arguments, so a
// test can drive the command end to end by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("MCM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestLoadGraphSources(t *testing.T) {
	// Exactly one source required.
	if _, err := loadGraph("", "", "", 8, 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadGraph("x.mtx", "er", "", 8, 1); err == nil {
		t.Error("two sources accepted")
	}

	// RMAT classes.
	for _, class := range []string{"g500", "ssca", "er", "G500", "ER"} {
		g, err := loadGraph("", class, "", 6, 1)
		if err != nil {
			t.Errorf("class %q: %v", class, err)
			continue
		}
		if g.Rows() != 64 {
			t.Errorf("class %q: %d rows", class, g.Rows())
		}
	}
	if _, err := loadGraph("", "bogus", "", 6, 1); err == nil {
		t.Error("unknown rmat class accepted")
	}

	// Table II stand-in.
	g, err := loadGraph("", "", "road_usa", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() == 0 {
		t.Error("empty stand-in")
	}
	if _, err := loadGraph("", "", "nope", 6, 1); err == nil {
		t.Error("unknown matrix accepted")
	}

	// Matrix Market file.
	path := filepath.Join(t.TempDir(), "g.mtx")
	content := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = loadGraph(path, "", "", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 2 {
		t.Errorf("mtx load: %d edges", g.Edges())
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.mtx"), "", "", 6, 1); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCPUProfileFlag runs a small solve with -cpuprofile and checks that
// the file parses as a pprof profile of CPU time.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	cmd := exec.Command(os.Args[0], "-rmat", "er", "-scale", "8", "-procs", "1", "-threads", "1", "-cpuprofile", path)
	cmd.Env = append(os.Environ(), "MCM_TEST_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mcm -cpuprofile: %v\n%s", err, out)
	}
	zipped, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	fields, strs, err := walkProfile(raw)
	if err != nil {
		t.Fatalf("profile is not a protobuf message: %v", err)
	}
	// profile.proto: 1 sample_type, 6 string_table, 11 period_type.
	for _, f := range []uint64{1, 6, 11} {
		if !fields[f] {
			t.Errorf("profile lacks field %d", f)
		}
	}
	for _, s := range []string{"samples", "count", "cpu", "nanoseconds"} {
		if !slices.Contains(strs, s) {
			t.Errorf("profile string table lacks %q: %q", s, strs)
		}
	}
}

// walkProfile decodes the top level of a protobuf-encoded pprof Profile:
// it returns which field numbers occur and the string table (field 6), and
// fails on any malformed or truncated field.
func walkProfile(b []byte) (map[uint64]bool, []string, error) {
	fields := map[uint64]bool{}
	var strs []string
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, io.ErrUnexpectedEOF
		}
		b = b[n:]
		fields[key>>3] = true
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, nil, io.ErrUnexpectedEOF
			}
			b = b[n:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, nil, io.ErrUnexpectedEOF
			}
			if key>>3 == 6 {
				strs = append(strs, string(b[n:n+int(l)]))
			}
			b = b[n+int(l):]
		default:
			return nil, nil, io.ErrUnexpectedEOF
		}
	}
	return fields, strs, nil
}
