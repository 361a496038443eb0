package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench command: with
// BENCH_TEST_MAIN=1 in its environment it runs main on its arguments, so a
// test can drive the command end to end by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bench re-executes the test binary as the bench command.
func bench(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCH_TEST_MAIN=1")
	return cmd
}

// TestBadFlagsExitCleanly checks that a -matrix or -procs no experiment
// can use is refused with one diagnostic line and exit status 1, before
// any experiment starts (and so before anything can panic).
func TestBadFlagsExitCleanly(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "enginesweep", "-matrix", "bogus", "-scale", "6", "-procs", "4"}, `"bogus"`},
		{[]string{"-exp", "graft", "-scale", "6", "-procs", "3"}, "-procs 3"},
	} {
		out, err := bench(tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("bench %v: err = %v, want exit status 1\n%s", tc.args, err, out)
			continue
		}
		msg := strings.TrimSpace(string(out))
		if strings.Contains(msg, "\n") || !strings.Contains(msg, tc.want) || strings.Contains(msg, "goroutine") {
			t.Errorf("bench %v: want one line naming %s and no goroutine dump, got\n%s", tc.args, tc.want, out)
		}
	}
}

// TestOverlapJSON runs -exp overlap with -json and checks the envelope
// carries both schedules with the same matching and the same meters.
func TestOverlapJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlap.json")
	if out, err := bench("-exp", "overlap", "-scale", "8", "-procs", "4", "-json", path).CombinedOutput(); err != nil {
		t.Fatalf("bench -exp overlap: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Results struct {
			Overlap []struct {
				Schedule    string `json:"schedule"`
				Cardinality int    `json:"cardinality"`
				Iterations  int    `json:"iterations"`
				Words       int64  `json:"words"`
			} `json:"overlap"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("envelope: %v\n%s", err, raw)
	}
	rows := env.Results.Overlap
	if len(rows) != 2 {
		t.Fatalf("results.overlap has %d rows, want 2\n%s", len(rows), raw)
	}
	a, b := rows[0], rows[1]
	if a.Cardinality == 0 || a.Cardinality != b.Cardinality || a.Iterations != b.Iterations || a.Words != b.Words {
		t.Errorf("schedules disagree: %+v vs %+v", a, b)
	}
}
