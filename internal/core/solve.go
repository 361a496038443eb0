package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"mcmdist/internal/grid"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Result reports a completed distributed matching run.
type Result struct {
	// Matching holds the final mate vectors in the caller's (unpermuted)
	// index space.
	Matching *matching.Matching
	// Stats is the rank-maximum merge of per-rank measurements with the
	// SPMD counters (phases, iterations, cardinality).
	Stats *Stats
	// PerRank holds every rank's final cumulative communication meter.
	PerRank []mpi.Meter
	// PerRankComm holds every rank's split-phase communication-time ledger:
	// total request-in-flight wall time vs the exposed part the rank
	// actually spent blocked. The gap is the latency hidden behind local
	// computation by the overlapped schedules.
	PerRankComm []mpi.CommTimes
	// Procs and Threads echo the effective configuration.
	Procs, Threads int
}

// Solve computes a maximum cardinality matching of the bipartite graph a on
// cfg.Procs simulated distributed-memory ranks. It distributes the matrix on
// a square process grid, runs the configured maximal-matching initializer
// and then MCM-DIST, and returns the matching with run statistics.
func Solve(a *spmat.CSC, cfg Config) (*Result, error) {
	return SolveOn(nil, a, cfg)
}

// SolveOn is Solve over an explicit transport endpoint, the entry point that
// lets one solve span OS processes. Every participating process calls it
// with its own endpoint and a bit-identical (a, cfg) pair: distribution,
// permutation and seeding are deterministic, so each process derives the
// same global blocks and runs only the ranks its endpoint hosts. The final
// mate vectors are allgathered, so every process returns the full Matching;
// Stats, PerRank and PerRankComm cover only locally hosted ranks (remote
// entries stay zero — observability is per-process, see docs/TRANSPORT.md).
// A nil tr means the in-process backend hosting all cfg.Procs ranks, which
// is exactly Solve.
func SolveOn(tr mpi.Transport, a *spmat.CSC, cfg Config) (*Result, error) {
	return solveOn(tr, a, cfg, nil)
}

// solveOn is SolveOn with optional caller-supplied runtime contexts, one per
// rank (see RunDistributed); the pooling equivalence tests pass
// pass-through contexts here.
func solveOn(tr mpi.Transport, a *spmat.CSC, cfg Config, ctxs []*rt.Ctx) (*Result, error) {
	l, cfg, err := newLayout(a, cfg)
	if err != nil {
		return nil, err
	}
	res, err := SolveGrid(tr, l.pr, l.pc, l.work.NRows, l.work.NCols, l.blocks, l.blocksT, cfg, ctxs)
	if err != nil {
		return nil, err
	}
	res.Matching = l.restore(res.Matching)
	return res, nil
}

// layout is a solve's input in the solver's index space: the matrix after
// the load-balancing permutation (Section IV-A), exactly as every rank,
// attempt and checkpoint sees it, distributed on the pr x pc grid.
type layout struct {
	pr, pc           int
	work             *spmat.CSC
	blocks, blocksT  [][]*spmat.LocalMatrix
	rowPerm, colPerm []int // nil unless cfg.Permute
}

// newLayout is the prologue of every entry point that takes an assembled
// matrix: config defaults, the grid shape (cfg.Procs becomes its size),
// the permutation, and the distribution of the matrix and its transpose.
func newLayout(a *spmat.CSC, cfg Config) (*layout, Config, error) {
	cfg = cfg.withDefaults()
	pr, pc, err := cfg.gridShape()
	if err != nil {
		return nil, cfg, err
	}
	cfg.Procs = pr * pc
	l := &layout{pr: pr, pc: pc, work: a}
	if cfg.Permute {
		l.rowPerm = rmat.RandomPermutation(a.NRows, cfg.Seed*2+1)
		l.colPerm = rmat.RandomPermutation(a.NCols, cfg.Seed*2+2)
		l.work = a.Permute(l.rowPerm, l.colPerm)
	}
	l.blocks = spmat.Distribute2D(l.work, pr, pc)
	l.blocksT = spmat.Distribute2D(l.work.Transpose(), pr, pc)
	return l, cfg, nil
}

// restore maps a matching of the permuted matrix P·A·Q back to A's index
// space: if row i was sent to rowPerm[i] and column j to colPerm[j], the
// permuted pair (rowPerm[i], colPerm[j]) is the caller's (i, j).
func (l *layout) restore(m *matching.Matching) *matching.Matching {
	if l.rowPerm == nil {
		return m
	}
	out := matching.NewMatching(len(l.rowPerm), len(l.colPerm))
	colInv := make([]int, len(l.colPerm))
	for j, pj := range l.colPerm {
		colInv[pj] = j
	}
	for i, pi := range l.rowPerm {
		if pj := m.MateR[pi]; pj != semiring.None {
			out.Match(i, colInv[pj])
		}
	}
	return out
}

// SolveEndpoints runs one solve over every endpoint of a pre-built
// transport set concurrently in this process — the loopback form of a
// multi-process deployment — and returns one Result per endpoint, in eps
// order. The caller retains ownership of the endpoints (and must Close
// them).
func SolveEndpoints(eps []mpi.Transport, a *spmat.CSC, cfg Config) ([]*Result, error) {
	return solveEndpoints(eps, cfg, func(ep mpi.Transport, cfg Config) (*Result, error) {
		return SolveOn(ep, a, cfg)
	})
}

// solveEndpoints is the one loopback-world driver: one goroutine per
// endpoint, each standing in for a process. With cfg.Obs set, the endpoint
// hosting rank 0 observes into it and every other endpoint into a fresh
// sibling, so observations really ship and cfg.Obs ends up holding the
// whole world, as a coordinator's collector would.
func solveEndpoints(eps []mpi.Transport, cfg Config, solve func(mpi.Transport, Config) (*Result, error)) ([]*Result, error) {
	results := make([]*Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		cfgI := cfg
		if cfg.Obs != nil && !slices.Contains(ep.LocalRanks(), 0) {
			cfgI.Obs = cfg.Obs.Sibling(cfg.Obs.Ranks())
		}
		wg.Add(1)
		go func(i int, ep mpi.Transport, cfgI Config) {
			defer wg.Done()
			results[i], errs[i] = solve(ep, cfgI)
		}(i, ep, cfgI)
	}
	wg.Wait()
	return results, pickAttemptError(errs)
}

// pickAttemptError selects the error a failed multi-endpoint solve
// surfaces: the first injected-fault error when one exists (the endpoint
// where the fault actually fired, rather than a peer's view of the ensuing
// abort), otherwise the first non-nil error in endpoint order. Both rules
// are deterministic given deterministic faults, which keeps the retry
// loop's error stream reproducible.
func pickAttemptError(errs []error) error {
	for _, e := range errs {
		if e != nil && (errors.Is(e, mpi.ErrInjectedNetFault) ||
			errors.Is(e, mpi.ErrInjectedCrash) || errors.Is(e, mpi.ErrInjectedRMAFailure)) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// SolveGrid runs one complete solve attempt on blocks pre-distributed onto
// a pr x pc grid: launch the world (under the configured fault plane and
// watchdog), restore or initialize the mate vectors, run the engine, gather
// the result and merge statistics. SolveOn and a DistributedGraph session
// call it once; SolveRecoverableGrid calls it from the retry loop, setting
// cfg.Resume between attempts. ctxs optionally supplies per-rank runtime
// contexts (see RunDistributed). A nil tr runs on the in-process backend;
// otherwise only tr's locally hosted ranks run, and the mate vectors are
// captured on the lowest of them (they are allgathered, so every rank holds
// the full vectors).
func SolveGrid(tr mpi.Transport, pr, pc, n1, n2 int, blocks, blocksT [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx) (*Result, error) {
	// Pin the engine before anything else: the resolution is deterministic
	// from SPMD-replicated inputs, so every process of a multi-process solve
	// derives the same choice, and checkpoint hashes see the concrete name.
	cfg, err := ResolveEngineConfig(cfg, n1, n2, blocks)
	if err != nil {
		return nil, err
	}
	eng, ok := EngineByName(cfg.Engine)
	if !ok {
		return nil, fmt.Errorf("core: engine %q is not registered (have %v)", cfg.Engine, EngineNames())
	}
	if tr == nil {
		tr = mpi.NewInproc(cfg.Procs)
	}
	if tr.WorldSize() != cfg.Procs {
		return nil, fmt.Errorf("core: transport world size %d != configured procs %d", tr.WorldSize(), cfg.Procs)
	}
	localRoot := tr.LocalRanks()[0]
	obsAttach(tr, cfg.Obs)
	perRankStats := make([]*Stats, cfg.Procs)
	perRankMeter := make([]mpi.Meter, cfg.Procs)
	perRankComm := make([]mpi.CommTimes, cfg.Procs)
	var mateR, mateC []int64

	err = runWorld(tr, pr, pc, n1, n2, blocks, blocksT, cfg, ctxs, func(s *Solver) error {
		mater, matec, err := s.InitOrRestore()
		if err != nil {
			return err
		}
		if err := s.RunEngine(eng, mater, matec); err != nil {
			return err
		}
		fullR := mater.Gather()
		fullC := matec.Gather()
		rank := s.G.World.Rank()
		if rank == localRoot {
			mateR, mateC = fullR, fullC
		}
		perRankStats[rank] = s.Stats
		perRankMeter[rank] = s.gatherMeter()
		perRankComm[rank] = s.G.World.CommTimes()
		return nil
	})
	if err != nil {
		return nil, err
	}
	obsFinish(tr, cfg.Obs)

	// Merge the locally hosted ranks' stats (on the in-process backend that
	// is every rank; remote ranks report in their own process).
	var merged *Stats
	for _, st := range perRankStats {
		if st == nil {
			continue
		}
		if merged == nil {
			merged = st
			continue
		}
		merged.MergeMax(st)
	}
	return &Result{
		Matching:    &matching.Matching{MateR: mateR, MateC: mateC},
		Stats:       merged,
		PerRank:     perRankMeter,
		PerRankComm: perRankComm,
		Procs:       cfg.Procs,
		Threads:     cfg.Threads,
	}, nil
}

// String renders a compact one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("|M|=%d (init %d) phases=%d iters=%d p=%d t=%d",
		r.Stats.Cardinality, r.Stats.InitCardinality, r.Stats.Phases,
		r.Stats.Iterations, r.Procs, r.Threads)
}

// RunDistributed launches pr*pc in-process ranks on a pr x pc grid over
// pre-distributed matrix blocks (blocksT is the transposed matrix,
// distributed the same way) and invokes fn with each rank's solver. It is
// the low-level entry point for benchmarks and for callers that manage mate
// vectors themselves; Solve wraps the same rank setup with distribution and
// result gathering. ctxs supplies one runtime context per rank (indexed by
// world rank): a session that solves repeatedly on the same distributed
// graph passes the same contexts every time, so the arena and scratch
// warmed up by one solve serve the next. A nil ctxs builds fresh contexts.
func RunDistributed(pr, pc, n1, n2 int, blocks, blocksT [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, fn func(*Solver) error) error {
	return runWorld(mpi.NewInproc(pr*pc), pr, pc, n1, n2, blocks, blocksT, cfg, ctxs, fn)
}

// runWorld runs fn on every rank tr hosts — under the configured fault
// plane, watchdog, compression and overlap schedule — each with a solver
// over its own blocks, and forwards the world's observability events.
func runWorld(tr mpi.Transport, pr, pc, n1, n2 int, blocks, blocksT [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, fn func(*Solver) error) error {
	rc := mpi.RunConfig{Faults: cfg.Fault, WatchdogTimeout: cfg.WatchdogTimeout,
		Compress: cfg.Compress, DisableOverlap: cfg.DisableOverlap}
	w, err := mpi.RunTransport(rc, tr, func(c *mpi.Comm) error {
		if cfg.Obs != nil {
			// Capture the rank's final meter on every exit path — success
			// or unwind — so shipped observations and flight dumps carry
			// what the rank had moved when the world ended.
			defer func() {
				cfg.Obs.SetRankMeter(c.Rank(), obsMeterPoints(c.MeterSnapshot()))
			}()
		}
		ctx := newRankCtx(c, cfg, ctxs, c.Rank())
		if ctxs == nil {
			// Fresh context: its worker pool dies with the rank. A caller-
			// supplied context keeps its pool warm across solves; the caller
			// releases it (e.g. DistributedGraph.Close).
			defer ctx.Close()
		}
		g, err := grid.NewWithRT(c, pr, pc, ctx)
		if err != nil {
			return err
		}
		return fn(NewSolver(g, cfg, n1, n2, blocks[g.MyRow][g.MyCol], blocksT[g.MyRow][g.MyCol]))
	})
	if w != nil {
		cfg.Obs.AddEvents(w.ObsEvents())
	}
	return err
}

// newRankCtx picks the runtime context for one rank: the caller-supplied
// one when present, otherwise a fresh pooling context.
func newRankCtx(c *mpi.Comm, cfg Config, ctxs []*rt.Ctx, rank int) *rt.Ctx {
	var ctx *rt.Ctx
	if ctxs != nil {
		ctx = ctxs[rank]
	} else {
		ctx = rt.New(c)
	}
	// Attach (or, for a reused session context, detach) the rank's span
	// tracer on both the runtime context (op spans via Track) and the comm
	// (collective/RMA/fault spans inside internal/mpi).
	tr := cfg.Obs.Tracer(c.Rank())
	ctx.SetTracer(tr)
	c.SetTracer(tr)
	return ctx
}
