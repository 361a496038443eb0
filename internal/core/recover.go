package core

import (
	"fmt"
	"slices"
	"time"

	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

// RecoveryPolicy bounds the retry loop of a recoverable solve.
type RecoveryPolicy struct {
	// MaxRetries is how many times a faulted attempt is retried before the
	// last error is surfaced. Zero means the default of 3.
	MaxRetries int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it up to MaxBackoff. Zero means 5ms (capped at 500ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Worlds provisions the transport endpoints for attempt generation gen
	// (0 first). Nil gives each attempt a fresh inproc world; otherwise
	// SolveRecoverableGrid solves every endpoint concurrently in this
	// process, takes the result from the one hosting rank 0, and Closes
	// each when its solve returns. distjob.Supervise, the cross-process
	// caller of Recover, provisions by rendezvous and leaves it nil.
	Worlds func(gen int) ([]mpi.Transport, error)
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// RecoveryStats reports what the retry loop did: attempts run, retries
// (attempts minus one, unless the first try succeeded), checkpoints taken
// across all attempts with their encoded volume, the wall time the
// successful attempt spent checkpointing, and the phase the final attempt
// resumed from (0 when it started fresh).
type RecoveryStats struct {
	Attempts        int
	Retries         int
	Checkpoints     int
	CheckpointBytes int64
	CheckpointWall  time.Duration
	ResumedPhase    int
	// Errors collects each failed attempt's error, in order.
	Errors []error
}

// Recover is the one generation loop of every recoverable solve, in-process
// or spanning OS processes. attempt runs generation gen on a fresh world,
// from resume when it is non-nil, handing every checkpoint it takes to
// keep; every keep call must happen before attempt returns (a finished
// world orders rank 0's calls). A failure that mpi.Restartable accepts is
// retried after a doubling backoff, from the freshest kept checkpoint once
// check accepts it; any other failure, an exhausted MaxRetries or a
// rejected checkpoint ends the loop. The stats are returned on every path.
func Recover(pol RecoveryPolicy, check func(*Checkpoint) error,
	attempt func(gen int, resume *Checkpoint, keep func(*Checkpoint)) (*Result, error)) (*Result, *RecoveryStats, error) {
	pol = pol.withDefaults()
	rec := &RecoveryStats{}
	var last, resume *Checkpoint
	keep := func(ck *Checkpoint) {
		last = ck
		rec.Checkpoints++
		rec.CheckpointBytes += int64(ck.EncodedSize())
	}
	backoff := pol.Backoff
	for gen := 0; ; gen++ {
		rec.Attempts++
		res, err := attempt(gen, resume, keep)
		if err == nil {
			rec.CheckpointWall = res.Stats.CheckpointWall
			return res, rec, nil
		}
		rec.Errors = append(rec.Errors, err)
		if !mpi.Restartable(err) {
			return nil, rec, fmt.Errorf("core: attempt %d failed terminally: %w", rec.Attempts, err)
		}
		if rec.Retries >= pol.MaxRetries {
			return nil, rec, fmt.Errorf("core: solve failed after %d attempts: %w", rec.Attempts, err)
		}
		if last != nil {
			if verr := check(last); verr != nil {
				return nil, rec, fmt.Errorf("core: cannot restart, checkpoint rejected: %w (attempt failed with %v)", verr, err)
			}
			resume = last
			rec.ResumedPhase = last.Phase
		}
		rec.Retries++
		time.Sleep(backoff)
		backoff = min(2*backoff, pol.MaxBackoff)
	}
}

// SolveRecoverable is Solve with checkpoint/restart (see Recover): a faulted
// attempt restarts from the last phase-boundary checkpoint, verified to
// encode a valid matching of a. cfg.CheckpointEvery should be positive;
// with checkpointing disabled a retry restarts from scratch.
func SolveRecoverable(a *spmat.CSC, cfg Config, pol RecoveryPolicy) (*Result, *RecoveryStats, error) {
	// Permute once, outside the retry loop, so every attempt (and every
	// checkpoint) lives in one consistent permuted index space.
	l, cfg, err := newLayout(a, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, rec, err := SolveRecoverableGrid(l.work, l.pr, l.pc, l.work.NRows, l.work.NCols, l.blocks, l.blocksT, cfg, nil, pol)
	if err != nil {
		return nil, rec, err
	}
	res.Matching = l.restore(res.Matching)
	return res, rec, nil
}

// ValidateResume is the pre-restart check for a caller that holds the
// assembled matrix rather than the blocks (distjob.Supervise): it checks ck
// against a solve of a under cfg, in the permuted index space SolveOn gives
// the ranks and with the engine resolved as the solve resolves it.
func ValidateResume(a *spmat.CSC, cfg Config, ck *Checkpoint) error {
	l, cfg, err := newLayout(a, cfg)
	if err != nil {
		return err
	}
	n1, n2 := l.work.NRows, l.work.NCols
	if cfg, err = ResolveEngineConfig(cfg, n1, n2, l.blocks); err != nil {
		return err
	}
	return validateCheckpoint(l.work, cfg, n1, n2, ck)
}

// SolveRecoverableGrid is SolveRecoverable for a matrix that is already
// distributed (the session API). a is the assembled matrix in the blocks'
// index space, used only to verify restored checkpoints; nil skips that
// check. ctxs optionally reuses per-rank runtime contexts across attempts
// (a context that survived an aborted attempt is safe to rebind). Each
// attempt runs on a fresh inproc world, or on pol.Worlds' endpoints for the
// generation, every one Closed when its solve returns.
func SolveRecoverableGrid(a *spmat.CSC, pr, pc, n1, n2 int, blocks, blocksT [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, pol RecoveryPolicy) (*Result, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	cfg.Procs = pr * pc
	// Resolve the engine once, up front, so validateCheckpoint compares
	// hashes against the same concrete engine every attempt runs (an "auto"
	// choice must not drift between attempts of one recoverable solve).
	cfg, err := ResolveEngineConfig(cfg, n1, n2, blocks)
	if err != nil {
		return nil, nil, err
	}
	check := func(ck *Checkpoint) error { return validateCheckpoint(a, cfg, n1, n2, ck) }
	return Recover(pol, check, func(gen int, resume *Checkpoint, keep func(*Checkpoint)) (*Result, error) {
		c := cfg
		if resume != nil {
			c.Resume = resume
		}
		if c.CheckpointEvery > 0 {
			user := cfg.OnCheckpoint
			c.OnCheckpoint = func(ck *Checkpoint) {
				keep(ck)
				if user != nil {
					user(ck)
				}
			}
		}
		if pol.Worlds == nil {
			return SolveGrid(nil, pr, pc, n1, n2, blocks, blocksT, c, ctxs)
		}
		eps, err := pol.Worlds(gen)
		if err != nil {
			return nil, fmt.Errorf("core: provisioning attempt generation %d: %w", gen, err)
		}
		results, err := solveEndpoints(eps, c, func(ep mpi.Transport, c Config) (*Result, error) {
			defer ep.Close() // a failed generation leaves no sockets behind
			return SolveGrid(ep, pr, pc, n1, n2, blocks, blocksT, c, ctxs)
		})
		if err != nil {
			return nil, err
		}
		for i, ep := range eps {
			if slices.Contains(ep.LocalRanks(), 0) {
				return results[i], nil // mates are allgathered: rank 0 holds them all
			}
		}
		return nil, fmt.Errorf("core: no endpoint of generation %d hosted rank 0", gen)
	})
}

// validateCheckpoint is the pre-restart safety net: compatibility (shape,
// engine, config hash), internally consistent cardinality, and (when the
// matrix is available) a full validity check that every matched pair is an
// edge and the two mate vectors agree.
func validateCheckpoint(a *spmat.CSC, cfg Config, n1, n2 int, ck *Checkpoint) error {
	if err := ck.compatible(cfg, n1, n2); err != nil {
		return err
	}
	if got := countMatched(ck.MateC); got != ck.Cardinality {
		return fmt.Errorf("checkpoint says cardinality %d but mate vector holds %d matches", ck.Cardinality, got)
	}
	if a != nil {
		if err := verify.Valid(a, &matching.Matching{MateR: ck.MateR, MateC: ck.MateC}); err != nil {
			return fmt.Errorf("checkpoint is not a valid matching: %w", err)
		}
	}
	return nil
}
