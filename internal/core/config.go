// Package core implements the paper's primary contribution: MCM-DIST
// (Algorithm 2), the distributed-memory maximum cardinality matching
// algorithm built from the matrix-algebraic primitives of Table I, together
// with its distributed maximal-matching initializers (Section VI-A) and the
// two augmentation strategies — level-parallel (Algorithm 3) and
// path-parallel via one-sided RMA (Algorithm 4) — with the automatic
// k < 2p² switch of Section IV-B.
package core

import (
	"fmt"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// Init selects the maximal-matching initializer run before the MCM phases
// (Section VI-A compares these; the paper defaults to dynamic mindegree).
type Init int

const (
	// InitNone starts from the empty matching.
	InitNone Init = iota
	// InitGreedy is the distributed greedy maximal matching.
	InitGreedy
	// InitKarpSipser is the distributed Karp–Sipser maximal matching with
	// the degree-1 rule; expensive on distributed memory (Fig. 3).
	InitKarpSipser
	// InitDynMinDegree is the distributed dynamic-mindegree maximal
	// matching, the paper's default initializer.
	InitDynMinDegree
)

// String names the initializer like the paper's figures.
func (in Init) String() string {
	switch in {
	case InitNone:
		return "none"
	case InitGreedy:
		return "greedy"
	case InitKarpSipser:
		return "karp-sipser"
	case InitDynMinDegree:
		return "dynamic-mindegree"
	default:
		return fmt.Sprintf("Init(%d)", int(in))
	}
}

// AugmentMode selects how discovered augmenting paths are applied.
type AugmentMode int

const (
	// AugmentAuto switches between the two variants with the paper's
	// criterion: path-parallel when k < 2p², level-parallel otherwise.
	AugmentAuto AugmentMode = iota
	// AugmentLevelParallel always uses Algorithm 3 (bulk-synchronous
	// INVERT/SET chains, level by level).
	AugmentLevelParallel
	// AugmentPathParallel always uses Algorithm 4 (asynchronous RMA walks,
	// one path at a time per owner).
	AugmentPathParallel
)

// String names the mode.
func (am AugmentMode) String() string {
	switch am {
	case AugmentAuto:
		return "auto"
	case AugmentLevelParallel:
		return "level-parallel"
	case AugmentPathParallel:
		return "path-parallel"
	default:
		return fmt.Sprintf("AugmentMode(%d)", int(am))
	}
}

// Direction pins or frees the per-iteration SpMV kernel choice (top-down
// spmv.Mul vs bottom-up spmv.MulPull). See docs/KERNELS.md.
type Direction int

const (
	// DirectionPush pins every iteration to the top-down kernel. It is the
	// zero value: the paper's static push schedule.
	DirectionPush Direction = iota
	// DirectionPull pins every iteration to the bottom-up kernel.
	DirectionPull
	// DirectionAuto runs the per-iteration push/pull heuristic.
	DirectionAuto
)

// String names the direction mode like the cmd/mcm -direction values.
func (d Direction) String() string {
	switch d {
	case DirectionPush:
		return "push"
	case DirectionPull:
		return "pull"
	case DirectionAuto:
		return "auto"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// ParseDirection maps the flag spellings to a Direction; "" is push.
func ParseDirection(s string) (Direction, error) {
	switch s {
	case "", "push":
		return DirectionPush, nil
	case "pull":
		return DirectionPull, nil
	case "auto":
		return DirectionAuto, nil
	}
	return DirectionPush, fmt.Errorf("core: unknown direction %q (want push, pull or auto)", s)
}

// Config controls a distributed matching run.
type Config struct {
	// Engine names the matching engine to run: a registered engine name
	// ("bfs", "bfs-ss", "bfs-graft", "auction" — see EngineNames), "auto"
	// to let ResolveEngineConfig pick per instance via the cost model, or
	// "" for "bfs", the paper's MCM-DIST. Parse user input with
	// ParseEngine.
	Engine string
	// Procs is the number of simulated MPI ranks. Unless GridRows/GridCols
	// are set it must be a perfect square (the configuration the paper
	// evaluates; its CombBLAS build "does not support rectangular grids" —
	// this implementation does, see GridRows). 0 means 1.
	Procs int
	// GridRows and GridCols select an explicit (possibly rectangular)
	// process grid; both must be set together and their product becomes
	// the rank count. Zero means the square grid derived from Procs.
	GridRows, GridCols int
	// Threads is the number of compute threads modeled per rank (the
	// paper's OpenMP threads, 12 per socket on Edison). It divides the
	// local-work term of the cost model. 0 means 1.
	Threads int
	// Init selects the maximal-matching initializer.
	Init Init
	// AddOp selects the SpMV semiring addition (minParent, randRoot,
	// randParent).
	AddOp semiring.AddOp
	// Augment selects the augmentation strategy.
	Augment AugmentMode
	// DisablePrune turns off Step 6 of Algorithm 2 (the Fig. 8 ablation).
	DisablePrune bool
	// PullThreshold is the minimum frontier fraction (of n2) for the pull
	// direction to be considered; 0 derives the threshold online from the
	// alpha-beta cost model's push/pull crossover at the run's thread count
	// and average degree (costmodel.PullCrossover). The pull choice
	// additionally requires the Beamer-style edge-count condition (see
	// internal/core/direction.go and docs/KERNELS.md).
	PullThreshold float64
	// Direction pins the SpMV kernel choice: DirectionPush (the zero value)
	// or DirectionPull hold one kernel for every iteration, and
	// DirectionAuto runs the per-iteration heuristic — the bottom-up
	// ("pull") step for large frontiers, the direction optimization the
	// paper lists as future work.
	Direction Direction
	// Compress enables the delta-varint wire codec (internal/wire) on the
	// communication layer: id-stream payloads are delta+varint encoded on
	// the tcp backend and the encoded volume is metered as Meter.WordsEnc on
	// every backend. Results are bit-identical with it on or off.
	Compress bool
	// Permute applies a random symmetric permutation before distributing,
	// the load-balancing step of Section IV-A.
	Permute bool
	// DisableOverlap runs the world on the blocking schedule
	// (mpi.RunConfig.DisableOverlap): every split-phase collective waits
	// for all of its parts when it starts, so no communication hides behind
	// computation. Results and communication meters are bit-identical
	// either way (the overlap-equivalence tests assert this); the switch
	// exists for those tests and for measuring how much latency the
	// split-phase schedules hide. Production runs leave it false.
	DisableOverlap bool
	// Seed drives the permutation and any randomized initializer.
	Seed int64
	// OnIteration, when non-nil, is invoked by rank 0 after every engine
	// iteration (a BFS level or an auction round) with SPMD-replicated
	// counters — a lightweight trace for debugging and teaching.
	OnIteration func(IterInfo)
	// Obs attaches the observability plane (internal/obs) to the run: span
	// tracing onto per-rank ring buffers, per-iteration time-series, and an
	// optional live metrics registry, per the collector's own options. The
	// collector must be built for at least the run's rank count. Nil (the
	// default) records nothing and keeps the hot path at its untraced cost.
	Obs *obs.Collector

	// Fault attaches a deterministic fault injector to the run's simulated
	// world (crash at the Nth collective, straggler latency, RMA failure);
	// nil injects nothing. See mpi.FaultPlan.
	Fault *mpi.FaultPlan
	// WatchdogTimeout arms the runtime's progress watchdog: a run making no
	// communication progress for this long is aborted with an
	// mpi.DeadlockError naming the stuck collective and lagging ranks. It
	// must comfortably exceed the longest communication-free compute stretch
	// and any injected straggler delay. Zero disables the watchdog.
	WatchdogTimeout time.Duration
	// CheckpointEvery takes a phase-boundary checkpoint after every Nth
	// augmentation phase (and after the initializer). Between phases the
	// mate vectors always encode a valid matching, which is what makes the
	// phase boundary a restart point. Zero disables checkpointing.
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint on rank 0. Required for
	// CheckpointEvery to take effect; the recovery driver installs its own
	// handler and chains to any caller-supplied one.
	OnCheckpoint func(*Checkpoint)
	// Resume restarts the solve from a prior checkpoint instead of running
	// the maximal-matching initializer: the checkpointed mate vectors are
	// scattered back over the grid and the MCM phases continue from there.
	Resume *Checkpoint
}

// IterInfo is one iteration's trace record.
type IterInfo struct {
	Phase        int  // 1-based phase number
	Iteration    int  // 1-based iteration within the run
	FrontierSize int  // columns in the frontier entering the iteration
	NewPaths     int  // augmenting paths discovered this iteration
	Pull         bool // whether the bottom-up SpMV direction was used
}

// withDefaults normalizes zero values.
func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Engine == "" {
		c.Engine = EngineBFS
	}
	// PullThreshold 0 is meaningful (resolve from the cost model online);
	// negative values are normalized to it.
	if c.PullThreshold < 0 {
		c.PullThreshold = 0
	}
	return c
}

// validate rejects configurations the algorithm does not support and
// returns the grid shape to use.
func (c Config) gridShape() (pr, pc int, err error) {
	if c.GridRows != 0 || c.GridCols != 0 {
		if c.GridRows <= 0 || c.GridCols <= 0 {
			return 0, 0, fmt.Errorf("core: GridRows and GridCols must both be positive (got %d x %d)",
				c.GridRows, c.GridCols)
		}
		return c.GridRows, c.GridCols, nil
	}
	s := 1
	for s*s < c.Procs {
		s++
	}
	if s*s != c.Procs {
		return 0, 0, fmt.Errorf("core: Procs = %d is not a perfect square (set GridRows/GridCols for a rectangular grid)", c.Procs)
	}
	return s, s, nil
}
