package engine

// The engine conformance suite: every engine registered in this binary must
// produce a valid MAXIMUM matching on both transports at every thread count,
// survive the fault plans under checkpoint/restart (in-process only — the
// retry driver cannot restart OS processes, see docs/TRANSPORT.md), and the
// BFS engines must stay bit-identical to the legacy Config entry points they
// replaced.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	_ "mcmdist/internal/mpi/tcpnet" // register the "tcp" backend
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

func mustMaximum(t *testing.T, a *spmat.CSC, m *matching.Matching, label string) {
	t.Helper()
	if err := verify.Valid(a, m); err != nil {
		t.Fatalf("%s: invalid matching: %v", label, err)
	}
	if err := verify.Maximum(a, m); err != nil {
		t.Fatalf("%s: not maximum: %v", label, err)
	}
}

// TestEngineConformance sweeps every registered engine over both transports
// and threads 1..4 on one RMAT instance. The in-process result is the oracle
// for the tcp run of the same configuration, which must match bit-for-bit —
// mate vectors and the per-rank meter ledgers.
func TestEngineConformance(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 21)
	for _, name := range core.EngineNames() {
		for threads := 1; threads <= 4; threads++ {
			t.Run(fmt.Sprintf("%s/t%d", name, threads), func(t *testing.T) {
				cfg := core.Config{Engine: name, Procs: 4, Threads: threads, Seed: 5}
				oracle, err := core.Solve(a, cfg)
				if err != nil {
					t.Fatalf("inproc solve: %v", err)
				}
				mustMaximum(t, a, oracle.Matching, "inproc")
				if oracle.Stats.Engine != name {
					t.Fatalf("Stats.Engine = %q, want %q", oracle.Stats.Engine, name)
				}

				eps, err := mpi.NewTransportSet("tcp", cfg.Procs)
				if err != nil {
					t.Fatalf("building tcp endpoints: %v", err)
				}
				results, err := core.SolveEndpoints(eps, a, cfg)
				if cerr := mpi.CloseAll(eps); cerr != nil {
					t.Errorf("closing endpoints: %v", cerr)
				}
				if err != nil {
					t.Fatalf("tcp solve: %v", err)
				}
				for i, res := range results {
					if want, got := fmt.Sprint(oracle.Matching.MateR), fmt.Sprint(res.Matching.MateR); want != got {
						t.Errorf("endpoint %d MateR diverges:\n  inproc: %s\n  tcp:    %s", i, want, got)
					}
					if want, got := fmt.Sprint(oracle.Matching.MateC), fmt.Sprint(res.Matching.MateC); want != got {
						t.Errorf("endpoint %d MateC diverges", i)
					}
					r := eps[i].LocalRanks()[0]
					if want, got := oracle.PerRank[r], res.PerRank[r]; want != got {
						t.Errorf("rank %d meter: inproc %+v, tcp %+v", r, want, got)
					}
				}
			})
		}
	}
}

// TestEveryEngineReportsEachIteration requires every registered engine to
// call Config.OnIteration once per counted iteration, so -trace prints a
// line for every iteration whichever engine runs.
func TestEveryEngineReportsEachIteration(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 21)
	for _, name := range core.EngineNames() {
		t.Run(name, func(t *testing.T) {
			calls := 0
			cfg := core.Config{Engine: name, Procs: 4, Seed: 5,
				OnIteration: func(core.IterInfo) { calls++ }}
			res, err := core.Solve(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Iterations == 0 {
				t.Fatal("solve ran no iterations")
			}
			if calls != res.Stats.Iterations {
				t.Fatalf("OnIteration called %d times, Stats.Iterations = %d", calls, res.Stats.Iterations)
			}
		})
	}
}

// TestEngineConformanceUnderFaults runs every engine under every fault plan
// with checkpoint/restart and requires a maximum matching after recovery.
func TestEngineConformanceUnderFaults(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 6, 4, 9)
	plans := map[string]func() *mpi.FaultPlan{
		"crash": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{CrashRank: 1, CrashAtCollective: 25}
		},
		"crash-late": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{CrashRank: 3, CrashAtCollective: 60}
		},
	}
	for _, name := range core.EngineNames() {
		for pname, plan := range plans {
			t.Run(name+"/"+pname, func(t *testing.T) {
				cfg := core.Config{
					Engine: name, Procs: 4, Seed: 7,
					CheckpointEvery: 1, OnCheckpoint: func(*core.Checkpoint) {},
					Fault: plan(),
				}
				res, rec, err := core.SolveRecoverable(a, cfg, core.RecoveryPolicy{})
				if err != nil {
					t.Fatalf("recoverable solve: %v", err)
				}
				if rec.Attempts < 2 {
					t.Fatalf("fault plan never fired: %+v", rec)
				}
				mustMaximum(t, a, res.Matching, "recovered")
			})
		}
	}
}

// TestBFSEnginesBitIdenticalToLegacyConfig pins each BFS engine's
// trajectory: the bfs, bfs-do and bfs-graft mates and counters were
// recorded from the legacy boolean spellings ({}, {DirectionOptimized:
// true}, {TreeGrafting: true}) before those knobs were deleted; the
// bfs-ss cases and every summed meter were recorded from the three
// per-engine loops before they became one shared level loop. Each case
// must reproduce its fingerprint bit for bit — mate vectors, cardinality,
// phases, iterations, the push/pull split, and the world's messages and
// words.
func TestBFSEnginesBitIdenticalToLegacyConfig(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 7, 4, 3)
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"bfs", core.Config{Procs: 4, Seed: 2},
			"mates=2049234c9a3f7e1f card=66 phases=5 iters=18 push=18 pull=0 msgs=1484 words=4917"},
		{"bfs-do", core.Config{Procs: 4, Direction: core.DirectionAuto, Seed: 2},
			"mates=2049234c9a3f7e1f card=66 phases=5 iters=18 push=15 pull=3 msgs=2184 words=5605"},
		{"bfs-graft", core.Config{Engine: core.EngineBFSGraft, Procs: 4, Seed: 2},
			"mates=2049234c9a3f7e1f card=66 phases=5 iters=21 push=21 pull=0 msgs=1852 words=5756"},
		{"bfs-ss", core.Config{Engine: core.EngineBFSSingleSource, Procs: 4, Seed: 2},
			"mates=75c48883dc26dad5 card=66 phases=66 iters=180 push=180 pull=0 msgs=13660 words=13317"},
		{"bfs-ss-do", core.Config{Engine: core.EngineBFSSingleSource, Procs: 4, Direction: core.DirectionAuto, Seed: 2},
			"mates=75c48883dc26dad5 card=66 phases=66 iters=180 push=180 pull=0 msgs=19436 words=19093"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Solve(a, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != tc.want {
				t.Fatalf("fingerprint %s, legacy spelling gave %s", got, tc.want)
			}
		})
	}
}

// fingerprint digests a solve's trajectory: an FNV-64a hash of both mate
// vectors, the SPMD counters, and the world-summed communication meter
// (messages and words), which pins the per-iteration collective sequence.
func fingerprint(res *core.Result) string {
	h := fnv.New64a()
	for _, v := range res.Matching.MateR {
		fmt.Fprintf(h, "%d,", v)
	}
	fmt.Fprint(h, "|")
	for _, v := range res.Matching.MateC {
		fmt.Fprintf(h, "%d,", v)
	}
	var world mpi.Meter
	for _, m := range res.PerRank {
		world = world.Add(m)
	}
	st := res.Stats
	return fmt.Sprintf("mates=%016x card=%d phases=%d iters=%d push=%d pull=%d msgs=%d words=%d",
		h.Sum64(), st.Cardinality, st.Phases, st.Iterations, st.PushIterations, st.PullIterations,
		world.Msgs, world.Words)
}

// TestCrossEngineResumeRefused takes a checkpoint under bfs and asserts the
// auction engine refuses to resume from it (and vice versa).
func TestCrossEngineResumeRefused(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 11)
	var cks []*core.Checkpoint
	cfg := core.Config{Engine: core.EngineBFS, Procs: 4, Seed: 1,
		CheckpointEvery: 1, OnCheckpoint: func(ck *core.Checkpoint) { cks = append(cks, ck) }}
	if _, err := core.Solve(a, cfg); err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints taken")
	}
	_, err := core.Solve(a, core.Config{Engine: core.EngineAuction, Procs: 4, Seed: 1, Resume: cks[len(cks)-1]})
	if err == nil || !strings.Contains(err.Error(), "refusing cross-engine resume") {
		t.Fatalf("cross-engine resume not refused: %v", err)
	}
}

// TestAutoEngineResolvesAndSolves pins the online selection path: "auto"
// must resolve to some registered engine and still produce a maximum
// matching, with Stats.Engine reporting the concrete choice.
func TestAutoEngineResolvesAndSolves(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 13)
	res, err := core.Solve(a, core.Config{Engine: core.EngineAuto, Procs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mustMaximum(t, a, res.Matching, "auto")
	found := false
	for _, n := range core.EngineNames() {
		if res.Stats.Engine == n {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stats.Engine = %q, not a registered engine %v", res.Stats.Engine, core.EngineNames())
	}
}

// TestFacade covers core's engine registry as a binary that links this
// package sees it: the canonical names are present and parse, other
// spellings do not, and the auction plug-in's capability flags are visible.
func TestFacade(t *testing.T) {
	names := core.EngineNames()
	for _, want := range []string{core.EngineBFS, core.EngineBFSSingleSource, core.EngineBFSGraft, core.EngineAuction} {
		ok := false
		for _, n := range names {
			if n == want {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("engine %q not registered (have %v)", want, names)
		}
	}
	if got, err := core.ParseEngine(core.EngineBFSGraft); err != nil || got != core.EngineBFSGraft {
		t.Fatalf("ParseEngine(bfs-graft) = %q, %v", got, err)
	}
	// "nope" and the removed legacy aliases are all unknown spellings.
	for _, bad := range []string{"nope", "graft", "ss", "single-source", "ms-bfs"} {
		if _, err := core.ParseEngine(bad); err == nil {
			t.Fatalf("ParseEngine accepted %q", bad)
		}
	}
	auction, ok := core.EngineByName(core.EngineAuction)
	if !ok || !auction.Caps().Checkpointable || auction.Caps().Augmenting {
		t.Fatalf("auction caps wrong: ok=%v", ok)
	}
	if _, ok := core.EngineByName("nope"); ok {
		t.Fatal("EngineByName found an unregistered engine")
	}
}
