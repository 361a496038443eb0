package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// This file holds the three MS-BFS engines behind the Engine seam. All
// three run one level-synchronous loop (levels, Algorithm 2's search) and
// differ only in how a phase opens (begin) and closes (end), so every
// engine issues the same per-iteration collective sequence (listed in
// docs/ALGORITHM.md; the direction × compression × backend × threads sweep
// tests and the engine fingerprints pin it). The engines live in core
// rather than internal/engine because their phase kernels are core's
// private SpMV/select/augment machinery and because core's own in-package
// tests drive them through Solve; internal/engine hosts the external
// plug-ins (docs/ENGINES.md discusses the trade-off).

func init() {
	RegisterEngine(bfsEngine{EngineBFS})
	RegisterEngine(bfsEngine{EngineBFSSingleSource})
	RegisterEngine(bfsEngine{EngineBFSGraft})
}

// bfsEngine is one of the three MS-BFS engines, selected by name:
//
//   - bfs is MCM-DIST (Algorithm 2): every phase searches from all
//     unmatched columns at once and augments by every vertex-disjoint path
//     found.
//   - bfs-ss is the single-source (SS-BFS) variant the paper's Section
//     III-A dismisses: each phase searches from ONE unmatched column and
//     stops at the first augmenting path. It exists to quantify that
//     argument — the algorithm needs ~|C| phases of ~diameter iterations
//     each, so its synchronization count (and hence its latency term)
//     explodes while every SpMV does trivial work.
//   - bfs-graft is the distributed form of MS-BFS-Graft [Azad, Buluç,
//     Pothen], which the paper names as future work: the parent and
//     tree-ownership vectors persist across phases, so alternating trees
//     that found no augmenting path keep their traversal; only augmented
//     trees release their rows, which are grafted onto surviving trees
//     when rediscovered. Rendition note (same as the serial
//     matching.MSBFSGraft): when a grafted phase discovers nothing, all
//     state is reset and one plain MS-BFS phase runs; only if that fresh
//     sweep also finds nothing is the matching declared maximum, which
//     keeps the termination condition identical to Algorithm 2's.
type bfsEngine struct{ name string }

// Name returns the engine's registry name.
func (e bfsEngine) Name() string { return e.name }

// Caps reports the full BFS capability set, the same for all three.
func (bfsEngine) Caps() EngineCaps {
	return EngineCaps{Checkpointable: true, DirectionOptimized: true, Augmenting: true}
}

// Start begins one solve of this engine's variant.
func (e bfsEngine) Start(s *Solver, mater, matec *dvec.Dense) EngineRun {
	r := &bfsRun{s: s, mater: mater, matec: matec}
	switch e.name {
	case EngineBFSSingleSource:
		r.single = true
		r.retired = dvec.NewDense(s.ColL, 0)
	case EngineBFSGraft:
		r.graft = true
		r.pir = dvec.NewDense(s.RowL, semiring.None)
		r.rootR = dvec.NewDense(s.RowL, semiring.None)
	}
	return r
}

type bfsRun struct {
	s            *Solver
	mater, matec *dvec.Dense
	// single (bfs-ss) searches from one source per phase and ends the phase
	// at the first level that finds a path; graft (bfs-graft) keeps pir and
	// rootR across phases, visits only rows no tree owns and stamps each
	// discovered row with its root. The engine sets them, never Config.
	single, graft bool
	// pir holds the parents of visited rows and pathc the endpoints of the
	// phase's augmenting paths (Algorithm 2, lines 3-5). pathc is per
	// phase; pir is too, except under grafting.
	pir, pathc *dvec.Dense
	// rootR (bfs-graft) is the root of the alternating tree owning each row
	// (None = unowned); it is the level loop's visited set.
	rootR *dvec.Dense
	// retired (bfs-ss) marks columns proven unmatchable: once no augmenting
	// path leaves a vertex, none ever will again (augmentations only grow
	// the reachable matching), so retirement is permanent. src is the
	// current phase's source column.
	retired *dvec.Dense
	src     int64
	// fresh (bfs-graft) is true while running the full-reset verification
	// phase.
	fresh bool
	// dir carries the adaptive direction choice (see direction.go): the
	// sticky pull-disable, the discovered-row count, and the resolved
	// switch threshold. Under grafting the count follows rootR's lifetime,
	// not the phase's, so it only resets when the trees do.
	dir   dirState
	phase int // phases started, including the final empty one
}

// Iterate runs one phase: open it, search level by level, then augment by
// the paths found (or retire the source, or reset the grafted trees).
// Returns done once a phase proves the matching maximum.
func (r *bfsRun) Iterate() (bool, error) {
	trc := r.s.G.RT.Tracer()
	r.phase++
	phase0 := trc.Begin()
	done := true
	if fc, fcCount := r.begin(); fc != nil {
		done = r.end(r.levels(fc, fcCount))
	}
	trc.End(obs.KindPhase, "phase", phase0, int64(r.phase))
	return done, nil
}

// begin opens a phase: it resets the per-phase state and returns the
// initial column frontier with its global size reduction in flight, or a
// nil frontier when bfs-ss has no source left (the matching is maximum).
func (r *bfsRun) begin() (fc *dvec.SparseV, fcCount *mpi.ValueRequest) {
	s := r.s
	r.pathc = dvec.NewDense(s.ColL, semiring.None)
	if !r.graft {
		r.dir.resetPhase()
		r.pir = dvec.NewDense(s.RowL, semiring.None)
	}
	s.tr.track(OpOther, func() {
		if r.single {
			fc = r.source()
		} else {
			fc = s.unmatchedColFrontier(r.matec)
		}
		if fc != nil {
			fcCount = s.startFrontierCount(fc)
		}
	})
	return fc, fcCount
}

// source picks bfs-ss's frontier: the globally smallest unmatched,
// unretired column, or nil when every unmatched column is retired.
func (r *bfsRun) source() *dvec.SparseV {
	s := r.s
	lo := s.ColL.MyRange().Lo
	local := int64(s.N2)
	for i, v := range r.matec.Local {
		if v == semiring.None && r.retired.Local[i] == 0 {
			local = int64(lo + i)
			break
		}
	}
	r.src = s.G.World.Allreduce(mpi.OpMin, local)
	s.G.World.AddWork(len(r.matec.Local))
	if r.src >= int64(s.N2) {
		return nil
	}
	fc := dvec.NewSparseV(s.ColL)
	if s.ColL.MyRange().Contains(int(r.src)) {
		fc.Append(int(r.src), semiring.Self(r.src))
	}
	return fc
}

// levels grows alternating trees level by level from the column frontier
// fc, whose global size fcCount is reducing, and returns the number of
// augmenting paths found, their endpoints stored in pathc. It stops when
// the frontier empties, or under bfs-ss at the first level that finds a
// path (that level skips PRUNE and step 7).
func (r *bfsRun) levels(fc *dvec.SparseV, fcCount *mpi.ValueRequest) int {
	s := r.s
	mater, pir, pathc := r.mater, r.pir, r.pathc
	visited := pir
	if r.graft {
		// Grafting filter: skip rows owned by ANY tree, from this phase or
		// an earlier one. It is also the pull direction's visited set, so
		// those rows are skipped before the scan rather than after.
		visited = r.rootR
	}
	pathsFound := 0

	for {
		var frontierSize int
		s.tr.track(OpOther, func() { frontierSize = int(fcCount.Wait()) })
		if frontierSize == 0 {
			break
		}
		s.Stats.Iterations++
		iter0 := s.obsIterBegin()

		// Step 1: explore neighbors of the column frontier in the
		// direction chooseDirection picks for this iteration (see
		// direction.go and docs/KERNELS.md for the heuristic).
		var fr *dvec.SparseV
		usePull := s.chooseDirection(&r.dir, frontierSize)
		s.tr.track(OpSpMV, func() {
			fr = s.mulDirected(usePull, &r.dir, fc, visited)
		})

		// Steps 2-4: unvisited rows; record parents (and, grafting, the
		// owning tree); split into unmatched (path endpoints) and matched
		// rows.
		var ufr *dvec.SparseV
		s.tr.track(OpSelect, func() {
			fr = fr.Select(visited, func(v int64) bool { return v == semiring.None })
			pir.ScatterParents(fr)
			if r.graft {
				r.rootR.ScatterRoots(fr)
			}
			ufr = fr.Select(mater, func(v int64) bool { return v == semiring.None })
			fr = fr.Select(mater, func(v int64) bool { return v != semiring.None })
		})
		if s.adaptiveDirection() {
			// Track discovered rows for the direction heuristic (the
			// same frontier-size allreduce real direction-optimized
			// BFS implementations perform each level).
			s.tr.track(OpOther, func() {
				r.dir.noteDiscovered(fr.Nnz() + ufr.Nnz())
			})
		}

		var newPaths int
		s.tr.track(OpOther, func() { newPaths = ufr.Nnz() })
		stop := r.single && newPaths > 0
		if newPaths > 0 {
			// Step 5: store endpoints of newly discovered augmenting
			// paths, one per alternating tree (INVERT keeps one).
			var tc *dvec.SparseV
			s.tr.track(OpInvert, func() {
				tc = ufr.InvertRoots(s.ColL)
			})
			s.tr.track(OpSelect, func() {
				pathc.ScatterParents(tc)
			})
			s.tr.track(OpOther, func() {
				pathsFound += tc.Nnz()
			})

			// Step 6: prune vertices in trees that already yielded a
			// path (the Fig. 8 ablation switch).
			if !stop && !s.Cfg.DisablePrune {
				s.tr.track(OpPrune, func() {
					roots := ufr.RootVals(s.G.RT.GetInts(ufr.LocalNnz()))
					fr = fr.PruneRoots(roots)
					s.G.RT.PutInts(roots)
				})
			}
		}

		if !stop {
			// Step 7: next column frontier from the mates of the
			// matched rows that remain.
			s.tr.track(OpSelect, func() {
				fr.SetParentsFrom(mater)
			})
			s.tr.track(OpInvert, func() {
				fc = fr.InvertParents(s.ColL)
				fcCount = s.startFrontierCount(fc)
			})
		}

		s.obsIterEnd(iter0, r.phase, frontierSize, newPaths, usePull)
		if stop {
			break
		}
	}
	return pathsFound
}

// end closes a phase that found pathsFound augmenting paths and reports
// whether the matching is maximum.
func (r *bfsRun) end(pathsFound int) bool {
	s := r.s
	if pathsFound == 0 {
		switch {
		case r.single:
			// The source is unmatchable now, hence forever: retire it.
			if s.ColL.MyRange().Contains(int(r.src)) {
				r.retired.SetAt(int(r.src), 1)
			}
			return false
		case r.graft && !r.fresh:
			// Grafted state may be blocking paths; reset and verify with
			// one plain phase.
			s.tr.track(OpOther, func() {
				r.pir.Fill(semiring.None)
				r.rootR.Fill(semiring.None)
				s.G.World.AddWork(len(r.pir.Local) + len(r.rootR.Local))
			})
			r.dir.resetPhase()
			s.Stats.GraftResets++
			r.fresh = true
			return false
		}
		return true // no augmenting path in this phase: matching is maximum
	}
	r.fresh = false
	s.Stats.Phases++
	s.Stats.AugmentedPaths += pathsFound

	// Step 8: augment by all paths found in this phase. The mate
	// vectors re-enter the "valid matching" invariant here, making the
	// phase boundary a restart point for checkpoint/restart.
	s.tr.track(OpAugment, func() {
		s.augment(r.pathc, r.pir, r.mater, r.matec, pathsFound)
	})
	s.maybeCheckpoint(s.Stats.Phases, r.mater, r.matec)
	if r.graft {
		r.releaseDeadTrees()
	}
	return false
}

// releaseDeadTrees (bfs-graft) releases the trees the phase augmented:
// their rows become graftable. Dead roots are the pathc entries; every
// rank gathers the full set (the same allgather pattern as PRUNE) and
// scans its local pieces.
func (r *bfsRun) releaseDeadTrees() {
	s := r.s
	s.tr.track(OpOther, func() {
		var local []int64
		lo := s.ColL.MyRange().Lo
		for i, end := range r.pathc.Local {
			if end != semiring.None {
				local = append(local, int64(lo+i))
			}
		}
		parts := s.G.World.Allgatherv(local)
		dead := make(map[int64]struct{})
		for _, p := range parts {
			for _, root := range p {
				dead[root] = struct{}{}
			}
		}
		released := 0
		for i, root := range r.rootR.Local {
			if root == semiring.None {
				continue
			}
			if _, ok := dead[root]; ok {
				r.rootR.Local[i] = semiring.None
				r.pir.Local[i] = semiring.None
				released++
			}
		}
		globalReleased := int(s.G.World.Allreduce(mpi.OpSum, int64(released)))
		s.Stats.GraftReleasedRows += globalReleased
		// Released rows are unowned again: fold them back into the
		// direction heuristic's unvisited count.
		r.dir.noteDiscovered(-globalReleased)
		s.G.World.AddWork(len(r.rootR.Local) + len(dead))
	})
}

// startFrontierCount begins the split-phase allreduce that sizes the next
// column frontier. The level loop starts it the moment a frontier is
// produced and Waits on it at the top of the next iteration, so the
// reduction's latency hides behind the bookkeeping in between (and, for the
// phase-final frontier, behind nothing — the request is simply waited). The
// request meters at completion, inside the tracked loop-top section.
func (s *Solver) startFrontierCount(fc *dvec.SparseV) *mpi.ValueRequest {
	return s.G.World.IAllreduce(mpi.OpSum, int64(fc.LocalNnz()))
}
