package distjob

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
)

// TestRoundTrip pins that Encode/Decode is lossless and version-stamped.
func TestRoundTrip(t *testing.T) {
	s := &Spec{
		RMAT: "ssca", Scale: 9, EdgeFactor: 8, Seed: 42,
		Procs: 4, Threads: 6,
		Init: "karpsipser", Semiring: "randroot", Augment: "level",
		Engine: "auction", Direction: "auto",
		NoPrune: true, NoPermute: true,
	}
	blob, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := *s
	want.V = Version
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, want)
	}
}

// TestDecodeRejects pins the decoder's failure modes: empty blobs, garbage,
// unknown versions and invalid field values.
func TestDecodeRejects(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("accepted empty blob")
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := Decode([]byte(`{"v":99,"rmat":"g500","procs":4}`)); err == nil {
		t.Error("accepted unknown version")
	}
	// v4 specs could carry the removed legacy knobs; solving one would
	// silently run another engine or direction than the coordinator meant.
	for _, v4 := range []string{
		`{"v":4,"rmat":"g500","procs":4,"graft":true}`,
		`{"v":4,"rmat":"g500","procs":4,"direction_optimized":true}`,
	} {
		if _, err := Decode([]byte(v4)); err == nil || !strings.Contains(err.Error(), "version 4") {
			t.Errorf("v4 spec %s not refused by version: %v", v4, err)
		}
	}
	bad := []string{
		fmt.Sprintf(`{"v":%d,"procs":4}`, Version),                                   // no source
		fmt.Sprintf(`{"v":%d,"rmat":"g500","matrix":"road_usa","procs":4}`, Version), // two sources
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":0}`, Version),                     // bad procs
		fmt.Sprintf(`{"v":%d,"rmat":"bogus","procs":4}`, Version),                    // bad class
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"init":"x"}`, Version),          // bad init
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"semiring":"x"}`, Version),      // bad semiring
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"augment":"x"}`, Version),       // bad augment
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"engine":"x"}`, Version),        // bad engine
	}
	for _, blob := range bad {
		if _, err := Decode([]byte(blob)); err == nil {
			t.Errorf("accepted %s", blob)
		}
	}
}

// TestBuildMatrix pins that the spec rebuilds the same matrices as direct
// generator calls, including the class-default edge factor.
func TestBuildMatrix(t *testing.T) {
	s := &Spec{RMAT: "g500", Scale: 6, Seed: 3, Procs: 1}
	a, err := s.BuildMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := rmat.MustGenerate(rmat.G500, 6, 32, 3)
	if fmt.Sprint(a.ColPtr) != fmt.Sprint(want.ColPtr) || fmt.Sprint(a.RowIdx) != fmt.Sprint(want.RowIdx) {
		t.Fatal("rmat spec diverges from direct generation")
	}

	mtxSrc := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	s = &Spec{MTX: mtxSrc, Procs: 1}
	a, err = s.BuildMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if a.NRows != 2 || a.NCols != 2 || a.NNZ() != 2 {
		t.Fatalf("embedded mtx built %dx%d nnz %d", a.NRows, a.NCols, a.NNZ())
	}
	if !strings.Contains(mtxSrc, "MatrixMarket") {
		t.Fatal("unreachable")
	}
}

// TestCoreConfig pins the name-to-enum mapping.
func TestCoreConfig(t *testing.T) {
	s := &Spec{
		RMAT: "er", Scale: 5, Seed: 9,
		Procs: 9, Threads: 2,
		Init: "greedy", Semiring: "randparent", Augment: "path",
		Engine: "bfs-graft", Direction: "pull",
		NoPrune: true, NoPermute: true,
	}
	cfg, err := s.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 9 || cfg.Threads != 2 || cfg.Seed != 9 {
		t.Fatalf("sizing: %+v", cfg)
	}
	if cfg.Init != core.InitGreedy || cfg.AddOp != semiring.RandParent || cfg.Augment != core.AugmentPathParallel {
		t.Fatalf("enums: %+v", cfg)
	}
	if cfg.Engine != core.EngineBFSGraft || cfg.Direction != core.DirectionPull {
		t.Fatalf("engine/direction: %+v", cfg)
	}
	if !cfg.DisablePrune || cfg.Permute {
		t.Fatalf("bools: %+v", cfg)
	}

	// Defaults mirror cmd/mcm's flag defaults.
	cfg, err = (&Spec{RMAT: "g500", Procs: 4}).CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Init != core.InitDynMinDegree || cfg.AddOp != semiring.MinParent || cfg.Augment != core.AugmentAuto || !cfg.Permute {
		t.Fatalf("defaults: %+v", cfg)
	}

	// The engine name flows through verbatim (resolution happens in core,
	// identically on every process).
	cfg, err = (&Spec{RMAT: "g500", Procs: 4, Engine: "auction"}).CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != core.EngineAuction {
		t.Fatalf("engine not forwarded: %+v", cfg)
	}
}
