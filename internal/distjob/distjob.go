// Package distjob defines the job description a multi-process solve ships
// through the transport bootstrap: the coordinator (cmd/mcm -transport tcp)
// encodes a Spec into the rendezvous config blob, every worker
// (cmd/mcmrank) decodes it, and both sides rebuild a bit-identical input
// matrix and solver configuration from it. Determinism of the generators
// and of MCM-DIST then guarantees every process computes the same matching
// without ever moving the graph over the wire.
//
// The codec is versioned JSON: a decoder rejects blobs whose "v" field it
// does not understand, so coordinator and worker binaries from different
// builds fail loudly instead of diverging silently.
package distjob

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcmdist/internal/core"
	_ "mcmdist/internal/engine" // register the out-of-core engines for worker solves
	"mcmdist/internal/gen"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mtx"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Solve runs an already-decoded spec on the given endpoint, rebuilding the
// matrix and configuration locally. onCheckpoint, when non-nil, receives
// each phase-boundary checkpoint on the process hosting rank 0 (the
// supervisor captures the freshest one there to seed the next generation);
// other processes keep the symmetric noop handler CoreConfig installs, so
// the collective checkpoint gathers stay SPMD.
//
// The returned collector is the process's observability state (nil when the
// spec enables none of it): on the coordinator of a successful tcp solve it
// holds the whole world's merged observation; on workers and failed solves
// it holds the local ranks. When the spec arms the flight recorder and the
// solve dies, the collector's state is persisted to FlightDir before
// returning — that dump is the post-mortem, written even though the error
// unwinds.
func (s *Spec) Solve(tr mpi.Transport, onCheckpoint func(*core.Checkpoint)) (*core.Result, *obs.Collector, error) {
	if s.Procs != tr.WorldSize() {
		return nil, nil, fmt.Errorf("distjob: job spec procs %d != transport world size %d", s.Procs, tr.WorldSize())
	}
	a, err := s.BuildMatrix()
	if err != nil {
		return nil, nil, err
	}
	cfg, err := s.CoreConfig()
	if err != nil {
		return nil, nil, err
	}
	if onCheckpoint != nil && cfg.CheckpointEvery > 0 {
		cfg.OnCheckpoint = onCheckpoint
	}
	res, err := core.SolveOn(tr, a, cfg)
	if err != nil && s.FlightDir != "" {
		s.writeFlightDump(tr, cfg.Obs, err)
	}
	return res, cfg.Obs, err
}

// writeFlightDump persists the crash flight recorder for this process: the
// span-ring tails and last meter points of its local ranks, the generation,
// and the rendered cause, as FlightDir/flight-g<gen>-r<rank>.dump. Best
// effort — the world is dying, so a failed dump must not mask the solve
// error — and atomic, so a dump that exists always decodes.
func (s *Spec) writeFlightDump(tr mpi.Transport, col *obs.Collector, cause error) string {
	if err := os.MkdirAll(s.FlightDir, 0o755); err != nil {
		return ""
	}
	ranks := tr.LocalRanks()
	d := col.BuildFlightDump(ranks, int64(s.Generation), cause.Error())
	path := filepath.Join(s.FlightDir, fmt.Sprintf("flight-g%d-r%d.dump", s.Generation, ranks[0]))
	if err := d.WriteFile(path); err != nil {
		return ""
	}
	return path
}

// Version is the current Spec codec version. Version 2 added the engine
// field; the bump is deliberate even though the field is optional, because a
// worker that silently dropped an unknown engine would solve with a
// different algorithm than the coordinator asked for. Version 3 adds the
// recovery plane: generation counter and the checkpoint a restarted world
// resumes from — a v2 worker joining a recovering world would neither
// checkpoint nor resume, so the bump is again load-bearing.
// Version 4 adds the observability plane (the enables from which every
// process builds the same collector) and the flight-recorder directory — a
// v3 worker would silently trace nothing and dump nothing, leaving holes in
// the merged world artifact, hence the bump. Version 5 drops the legacy
// graft and direction_optimized knobs (use engine "bfs-graft" and
// direction "auto"): a v4 spec carrying them is refused rather than solved
// silently with a different engine or direction.
const Version = 5

// Spec describes one distributed solve: the graph source (exactly one of
// RMAT, Matrix or MTX) and the solver options, mirroring cmd/mcm's flags.
type Spec struct {
	// V is the codec version; Encode stamps it, Decode validates it.
	V int `json:"v"`

	// RMAT selects a synthetic R-MAT matrix by class: "g500", "ssca" or
	// "er" (Section V-B of the paper).
	RMAT string `json:"rmat,omitempty"`
	// Matrix selects a Table II stand-in by generator name.
	Matrix string `json:"matrix,omitempty"`
	// MTX carries a Matrix Market file inline. Workers may start in a
	// different filesystem namespace than the coordinator, so the content
	// travels in the spec rather than as a path.
	MTX string `json:"mtx,omitempty"`
	// Scale sizes generated matrices (2^scale vertices per side).
	Scale int `json:"scale,omitempty"`
	// EdgeFactor overrides the R-MAT nonzeros per row; 0 means the
	// class default (32, or 16 for SSCA).
	EdgeFactor int `json:"edge_factor,omitempty"`
	// Seed drives the generators and the load-balancing permutation.
	Seed int64 `json:"seed,omitempty"`

	// Procs is the world size; it must match the transport's.
	Procs int `json:"procs"`
	// Threads is the modeled thread count per rank.
	Threads int `json:"threads,omitempty"`
	// Init names the initializer: "none", "greedy", "karpsipser" or
	// "mindegree".
	Init string `json:"init,omitempty"`
	// Semiring names the SpMV addition: "minparent", "randroot" or
	// "randparent".
	Semiring string `json:"semiring,omitempty"`
	// Augment names the augmentation strategy: "auto", "level" or "path".
	Augment string `json:"augment,omitempty"`
	// NoPrune disables tree pruning (the Fig. 8 ablation).
	NoPrune bool `json:"no_prune,omitempty"`
	// Direction pins or frees the per-iteration SpMV kernel: "push" (or
	// ""), "pull", or "auto".
	Direction string `json:"direction,omitempty"`
	// Compress enables the delta-varint wire codec on the solve's
	// communication layer.
	Compress bool `json:"compress,omitempty"`
	// Engine names the matching engine ("bfs", "bfs-ss", "bfs-graft",
	// "auction", "auto", or "" for "bfs"). Every process resolves it
	// identically from the spec.
	Engine string `json:"engine,omitempty"`
	// NoPermute skips the load-balancing random permutation.
	NoPermute bool `json:"no_permute,omitempty"`

	// Generation counts world restarts of this job; 0 is the initial world.
	// Every restart re-runs the rendezvous under a fresh generation, so a
	// worker can tell a new world from a stale reconnect.
	Generation int `json:"generation,omitempty"`
	// Recover marks the job as supervised: a worker whose solve dies of a
	// restartable transport failure rejoins the rendezvous for the next
	// generation instead of exiting (see WorkLoop).
	Recover bool `json:"recover,omitempty"`
	// CheckpointEvery takes a phase-boundary checkpoint every Nth phase on
	// all processes (collective); the supervisor holds the freshest one.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// WatchdogMillis arms the progress watchdog, so a world stalled by a
	// failure mode the detector cannot see still aborts (and restarts).
	WatchdogMillis int64 `json:"watchdog_millis,omitempty"`
	// Checkpoint carries the previous generation's freshest snapshot
	// (MCMCKPT bytes) into a restarted world; every process decodes it into
	// its resume state, so generation g+1 starts exactly where g left off.
	Checkpoint []byte `json:"checkpoint,omitempty"`

	// ObsSpans enables span tracing on every process of the world. The
	// observability fields travel in the spec so the whole world observes
	// symmetrically — workers ship their share back to the coordinator at
	// solve end, where one merged artifact is produced.
	ObsSpans bool `json:"obs_spans,omitempty"`
	// ObsSeries enables the per-iteration time-series on every process.
	ObsSeries bool `json:"obs_series,omitempty"`
	// ObsMetrics gives every process a live metrics registry; the
	// coordinator absorbs the workers' registries into world aggregates.
	ObsMetrics bool `json:"obs_metrics,omitempty"`
	// FlightDir, when non-empty, arms the crash flight recorder: a process
	// whose solve dies persists its span-ring tail, last meter points,
	// generation and cause to FlightDir/flight-g<gen>-r<rank>.dump. Arming
	// the recorder implies span tracing (a dump without spans names
	// nothing). The path is interpreted in each process's own filesystem
	// namespace.
	FlightDir string `json:"flight_dir,omitempty"`
}

// Encode serializes the spec, stamping the codec version.
func (s *Spec) Encode() ([]byte, error) {
	c := *s
	c.V = Version
	if err := c.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(&c)
}

// Decode parses and validates a blob produced by Encode.
func Decode(blob []byte) (*Spec, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("distjob: empty job spec (coordinator sent no config blob)")
	}
	var s Spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("distjob: bad job spec: %w", err)
	}
	if s.V != Version {
		return nil, fmt.Errorf("distjob: job spec version %d, this build speaks %d", s.V, Version)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	n := 0
	for _, src := range []string{s.RMAT, s.Matrix, s.MTX} {
		if src != "" {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("distjob: spec needs exactly one graph source (rmat, matrix or mtx), got %d", n)
	}
	if s.Procs <= 0 {
		return fmt.Errorf("distjob: procs %d must be positive", s.Procs)
	}
	if s.Generation < 0 || s.CheckpointEvery < 0 || s.WatchdogMillis < 0 {
		return fmt.Errorf("distjob: negative recovery field (generation %d, checkpoint_every %d, watchdog_millis %d)",
			s.Generation, s.CheckpointEvery, s.WatchdogMillis)
	}
	if _, err := s.rmatParams(); err != nil {
		return err
	}
	if _, err := initByName(s.Init); err != nil {
		return err
	}
	if _, err := addOpByName(s.Semiring); err != nil {
		return err
	}
	if _, err := augmentByName(s.Augment); err != nil {
		return err
	}
	if _, err := core.ParseEngine(s.Engine); err != nil {
		return err
	}
	if _, err := core.ParseDirection(s.Direction); err != nil {
		return err
	}
	return nil
}

func (s *Spec) rmatParams() (rmat.Params, error) {
	switch strings.ToLower(s.RMAT) {
	case "", "g500":
		return rmat.G500, nil
	case "ssca":
		return rmat.SSCA, nil
	case "er":
		return rmat.ER, nil
	default:
		return rmat.Params{}, fmt.Errorf("distjob: unknown rmat class %q", s.RMAT)
	}
}

func initByName(name string) (core.Init, error) {
	switch name {
	case "", "mindegree":
		return core.InitDynMinDegree, nil
	case "none":
		return core.InitNone, nil
	case "greedy":
		return core.InitGreedy, nil
	case "karpsipser":
		return core.InitKarpSipser, nil
	default:
		return 0, fmt.Errorf("distjob: unknown init %q", name)
	}
}

func addOpByName(name string) (semiring.AddOp, error) {
	switch name {
	case "", "minparent":
		return semiring.MinParent, nil
	case "randroot":
		return semiring.RandRoot, nil
	case "randparent":
		return semiring.RandParent, nil
	default:
		return 0, fmt.Errorf("distjob: unknown semiring %q", name)
	}
}

func augmentByName(name string) (core.AugmentMode, error) {
	switch name {
	case "", "auto":
		return core.AugmentAuto, nil
	case "level":
		return core.AugmentLevelParallel, nil
	case "path":
		return core.AugmentPathParallel, nil
	default:
		return 0, fmt.Errorf("distjob: unknown augment %q", name)
	}
}

// BuildMatrix rebuilds the input matrix from the spec. The generators are
// deterministic in the spec fields, so every process gets a bit-identical
// matrix.
func (s *Spec) BuildMatrix() (*spmat.CSC, error) {
	switch {
	case s.MTX != "":
		return mtx.Read(strings.NewReader(s.MTX))
	case s.Matrix != "":
		sp, err := gen.FindSpec(s.Matrix)
		if err != nil {
			return nil, err
		}
		return gen.Generate(sp, s.Scale)
	default:
		p, err := s.rmatParams()
		if err != nil {
			return nil, err
		}
		ef := s.EdgeFactor
		if ef == 0 {
			ef = p.EdgeFactor()
		}
		return rmat.Generate(p, s.Scale, ef, s.Seed)
	}
}

// CoreConfig maps the spec onto a core solver configuration. Every process
// must derive its config from the same spec so the solve stays SPMD.
func (s *Spec) CoreConfig() (core.Config, error) {
	cfg := core.Config{
		Engine:       s.Engine,
		Procs:        s.Procs,
		Threads:      s.Threads,
		DisablePrune: s.NoPrune,
		Compress:     s.Compress,
		Permute:      !s.NoPermute,
		Seed:         s.Seed,
	}
	var err error
	if cfg.Init, err = initByName(s.Init); err != nil {
		return core.Config{}, err
	}
	if cfg.AddOp, err = addOpByName(s.Semiring); err != nil {
		return core.Config{}, err
	}
	if cfg.Augment, err = augmentByName(s.Augment); err != nil {
		return core.Config{}, err
	}
	if cfg.Direction, err = core.ParseDirection(s.Direction); err != nil {
		return core.Config{}, err
	}
	cfg.CheckpointEvery = s.CheckpointEvery
	if s.WatchdogMillis > 0 {
		cfg.WatchdogTimeout = time.Duration(s.WatchdogMillis) * time.Millisecond
	}
	if s.CheckpointEvery > 0 {
		// The checkpoint gathers are collective, so every process must install
		// a handler symmetrically or the world deadlocks; rank 0's supervisor
		// replaces this noop with its capture hook (Spec.Solve).
		cfg.OnCheckpoint = func(*core.Checkpoint) {}
	}
	if len(s.Checkpoint) > 0 {
		ck, err := core.DecodeCheckpoint(s.Checkpoint)
		if err != nil {
			return core.Config{}, fmt.Errorf("distjob: generation %d resume checkpoint: %w", s.Generation, err)
		}
		cfg.Resume = ck
	}
	if s.ObsSpans || s.ObsSeries || s.ObsMetrics || s.FlightDir != "" {
		opt := obs.Options{Spans: s.ObsSpans || s.FlightDir != "", TimeSeries: s.ObsSeries}
		if s.ObsMetrics {
			opt.Metrics = obs.NewRegistry()
		}
		cfg.Obs = obs.NewCollector(s.Procs, opt)
	}
	return cfg, nil
}
