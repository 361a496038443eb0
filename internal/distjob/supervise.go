// Coordinator-led world restart: the recovery protocol that lets a solve
// spanning OS processes survive a killed worker, a dropped link, or a
// partition. The coordinator (Supervise) is a caller of core.Recover, the
// generation loop every recoverable solve shares; each generation is one
// complete world — rendezvous, solve attempt, teardown. When an attempt
// dies of a restartable failure, the coordinator re-listens
// on the same address and re-runs the rendezvous with a spec carrying the
// bumped generation and the freshest phase-boundary checkpoint; surviving
// workers (WorkLoop) rejoin, and a SIGKILLed worker's slot is filled by
// whatever replacement process dials in. The MCM-DIST invariant — any valid
// matching is a legal starting state — is what makes the resumed generation
// correct: it restores the checkpoint's matching and continues as if the
// checkpoint had been its initializer.
package distjob

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
)

// SupervisePolicy configures the coordinator's restart loop: the core retry
// policy (MaxRetries bounds the restarts) plus the supervisor's own hooks.
// A zero Backoff or MaxBackoff means 50ms doubling up to 2s — long enough
// for a failed generation's sockets to drain before re-listening. Worlds
// must be nil: every generation's world is the rendezvous.
type SupervisePolicy struct {
	core.RecoveryPolicy
	// Log, when non-nil, receives one progress line per generation event.
	Log func(format string, args ...any)
	// OnListen, when non-nil, receives the pinned rendezvous address once
	// the first generation's listener is up — the address workers must
	// Join. With an explicit addr it echoes it; with ":0" it is the only
	// way to learn the kernel-chosen port (the in-process tests depend on
	// this; a deployment would pass a concrete address).
	OnListen func(addr string)
}

// SuperviseStats reports what the supervisor did across generations: the
// core loop's counts (one attempt per generation), plus the supervisor's
// post-mortem bundle and final collector.
type SuperviseStats struct {
	core.RecoveryStats
	// FlightDumps lists the flight-recorder dump files accumulated in the
	// spec's FlightDir across failed generations — the coordinator's own
	// dumps plus those of any worker sharing the directory — sorted by
	// path, so the post-mortem bundle of a recovered solve survives the
	// generations that produced it.
	FlightDumps []string
	// Obs is the final generation's collector (nil when the spec enables no
	// observability): after a successful generation it holds the merged
	// whole-world observation, ready for WriteTrace and friends.
	Obs *obs.Collector
}

// collectFlightDumps scans dir for flight-recorder dumps and folds any new
// paths into the stats, keeping the list sorted and duplicate-free.
func (st *SuperviseStats) collectFlightDumps(dir string) {
	if dir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(dir, "flight-g*.dump"))
	if err != nil {
		return
	}
	have := make(map[string]bool, len(st.FlightDumps))
	for _, p := range st.FlightDumps {
		have[p] = true
	}
	for _, p := range paths {
		if !have[p] {
			st.FlightDumps = append(st.FlightDumps, p)
		}
	}
	sort.Strings(st.FlightDumps)
}

// Supervise is the coordinator side of a recoverable multi-process solve:
// rank 0's supervisor, a caller of core.Recover. Each generation it listens
// on addr, coordinates a spec.Procs-rank rendezvous shipping the spec
// (stamped with the generation number and, after a failure, the freshest
// checkpoint, validated against the spec's matrix first), runs rank 0's
// share of the solve, and tears the world down. Failures that
// mpi.Restartable classifies as transport-level start the next generation;
// anything else — an algorithm error, a genuine panic — surfaces
// immediately, because restarting would only reproduce it.
//
// The spec's CheckpointEvery should be positive for restarts to resume
// mid-solve; with checkpointing off a restarted generation simply starts
// from scratch. Supervise overwrites spec.Recover, spec.Generation and
// spec.Checkpoint; everything else is the caller's. The stats are returned
// on every path.
func Supervise(addr string, spec *Spec, opts tcpnet.Options, pol SupervisePolicy) (*core.Result, *SuperviseStats, error) {
	stats := &SuperviseStats{}
	if pol.Worlds != nil {
		return nil, stats, fmt.Errorf("distjob: SupervisePolicy.Worlds must be nil; the rendezvous provisions every generation")
	}
	if pol.Backoff <= 0 {
		pol.Backoff = 50 * time.Millisecond
	}
	if pol.MaxBackoff <= 0 {
		pol.MaxBackoff = 2 * time.Second
	}
	logf := pol.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	spec.Recover = true
	res, rec, err := core.Recover(pol.RecoveryPolicy, spec.checkResume,
		func(gen int, resume *core.Checkpoint, keep func(*core.Checkpoint)) (*core.Result, error) {
			spec.Generation = gen
			spec.Checkpoint = nil
			if resume != nil {
				spec.Checkpoint = resume.Encode()
				logf("generation %d: restarting from phase %d checkpoint", gen, resume.Phase)
			} else if gen > 0 {
				logf("generation %d: restarting from scratch", gen)
			}
			blob, err := spec.Encode()
			if err != nil {
				return nil, err
			}
			rv, err := tcpnet.Listen(addr, opts)
			if err != nil {
				return nil, fmt.Errorf("distjob: generation %d listen: %w", gen, err)
			}
			if gen == 0 {
				// Pin the kernel-chosen port (":0" listens) so every later
				// generation rendezvouses at the address the workers know.
				addr = rv.Addr()
				if pol.OnListen != nil {
					pol.OnListen(addr)
				}
			}
			logf("generation %d: coordinating %d-rank world at %s", gen, spec.Procs, addr)
			res, col, err := superviseGeneration(rv, spec, blob, keep)
			stats.Obs = col
			if err != nil {
				stats.collectFlightDumps(spec.FlightDir)
				logf("generation %d failed: %v", gen, err)
				return nil, err
			}
			logf("generation %d: solve complete", gen)
			return res, nil
		})
	stats.RecoveryStats = *rec
	return res, stats, err
}

// superviseGeneration runs one world: coordinate the rendezvous, solve rank
// 0's share handing each checkpoint to keep, and always tear the endpoint
// down before returning so the next generation can re-listen cleanly.
func superviseGeneration(rv *tcpnet.Rendezvous, spec *Spec, blob []byte, keep func(*core.Checkpoint)) (*core.Result, *obs.Collector, error) {
	n, err := rv.Coordinate(spec.Procs, blob)
	if err != nil {
		rv.Close()
		return nil, nil, fmt.Errorf("distjob: rendezvous: %w", err)
	}
	defer n.Close()
	return spec.Solve(n, keep)
}

// checkResume validates ck against the matrix and configuration every
// process rebuilds from this spec, before the supervisor ships it to a
// restarted world.
func (s *Spec) checkResume(ck *core.Checkpoint) error {
	a, err := s.BuildMatrix()
	if err != nil {
		return err
	}
	cfg, err := s.CoreConfig()
	if err != nil {
		return err
	}
	return core.ValidateResume(a, cfg, ck)
}

// WorkLoop is the worker side of a recoverable multi-process solve: Join the
// rendezvous, solve, and — when the job is supervised and the attempt died
// of a restartable failure — rejoin for the next generation, until a
// generation completes or fails terminally. With an unsupervised job
// (spec.Recover false, as every pre-v3 coordinator ships) it behaves exactly
// like a single Join+Run: any failure surfaces immediately.
//
// Join's dial retry bridges the gap while the coordinator tears down the
// failed world and re-listens; a Join failure after the retry window means
// the coordinator is gone (it finished, gave up, or died), and its error
// surfaces alongside the generation's.
func WorkLoop(addr string, rank int, opts tcpnet.Options, logf func(format string, args ...any)) (*core.Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		n, blob, err := tcpnet.Join(addr, rank, opts)
		if err != nil {
			return nil, err
		}
		spec, err := Decode(blob)
		if err != nil {
			n.Close()
			return nil, err
		}
		if spec.Generation > 0 {
			logf("rejoined as generation %d", spec.Generation)
		}
		res, _, err := spec.Solve(n, nil)
		n.Close()
		if err == nil {
			return res, nil
		}
		if !spec.Recover || !mpi.Restartable(err) {
			return nil, err
		}
		logf("generation %d failed (%v); rejoining %s", spec.Generation, err, addr)
	}
}
