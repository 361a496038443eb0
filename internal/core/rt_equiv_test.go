package core

// Pooling on/off equivalence: MCM-DIST must compute the same matching (and,
// the algorithm being deterministic, the same per-rank communication
// meters) whether each rank's runtime context pools its arena (rt.New) or
// is in pass-through mode (rt.NewDisabled, supplied through the ctxs
// parameter). Any divergence means a pooled buffer leaked state between
// borrows. The sweep mirrors the generator, seed, and grid-shape
// combinations of the oracle tests in core_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"mcmdist/internal/matching"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// solveBothWays runs cfg pooled and unpooled and asserts bit-identical
// matchings, oracle agreement, and identical per-rank meters.
func solveBothWays(t *testing.T, name string, a *spmat.CSC, cfg Config) {
	t.Helper()
	want := matching.HopcroftKarp(a, nil).Cardinality()
	on := mustSolve(t, a, cfg)
	procs := cfg.Procs
	if cfg.GridRows > 0 {
		procs = cfg.GridRows * cfg.GridCols
	}
	ctxs := make([]*rt.Ctx, max(procs, 1))
	for r := range ctxs {
		ctxs[r] = rt.NewDisabled(nil)
	}
	off, err := solveOn(nil, a, cfg, ctxs)
	if err != nil {
		t.Fatalf("%s: unpooled solve: %v", name, err)
	}
	if on.Stats.Cardinality != want {
		t.Fatalf("%s: cardinality %d, oracle %d", name, on.Stats.Cardinality, want)
	}
	if !matesEqual(on.Matching.MateR, off.Matching.MateR) || !matesEqual(on.Matching.MateC, off.Matching.MateC) {
		t.Fatalf("%s: pooled and unpooled matchings differ", name)
	}
	for r := range on.PerRank {
		if on.PerRank[r] != off.PerRank[r] {
			t.Fatalf("%s rank %d: pooled meter %+v, unpooled %+v",
				name, r, on.PerRank[r], off.PerRank[r])
		}
	}
}

func TestPoolingOnOffEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc))+nr)
		for _, procs := range []int{1, 4, 9} {
			for _, init := range []Init{InitNone, InitGreedy} {
				name := fmt.Sprintf("trial %d p=%d init=%v", trial, procs, init)
				solveBothWays(t, name, a, Config{Procs: procs, Init: init})
			}
		}
	}
}

func TestPoolingOnOffEquivalenceVariants(t *testing.T) {
	// The harder configurations: every initializer, the randomized
	// semirings, tree grafting, direction optimization, permutation, and
	// rectangular grids — each compared pooled vs unpooled on random and
	// RMAT generators.
	rng := rand.New(rand.NewSource(10))
	graphs := []struct {
		name string
		a    *spmat.CSC
	}{
		{"random", randomBipartite(rng, 60, 60, 260)},
		{"g500", rmat.MustGenerate(rmat.G500, 7, 4, 21)},
		{"er", rmat.MustGenerate(rmat.ER, 7, 4, 21)},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"karp-sipser", Config{Procs: 4, Init: InitKarpSipser}},
		{"dyn-mindegree", Config{Procs: 4, Init: InitDynMinDegree}},
		{"rand-root", Config{Procs: 4, AddOp: semiring.RandRoot}},
		{"rand-parent", Config{Procs: 4, AddOp: semiring.RandParent}},
		{"graft-permuted", Config{Procs: 4, Init: InitDynMinDegree, Engine: EngineBFSGraft, Permute: true, Seed: 4}},
		{"dir-opt", Config{Procs: 4, Init: InitGreedy, Direction: DirectionAuto}},
		{"grid-2x3", Config{GridRows: 2, GridCols: 3, Init: InitDynMinDegree, Permute: true, Seed: 4}},
		{"grid-1x4", Config{GridRows: 1, GridCols: 4, Init: InitGreedy}},
	}
	for _, g := range graphs {
		for _, c := range configs {
			solveBothWays(t, g.name+"/"+c.name, g.a, c.cfg)
		}
	}
}
