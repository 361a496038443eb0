package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mcmdist"
)

// input is one graph of a run: the program's graph built from its edge
// list, the session that solves it, and Hopcroft–Karp's cardinality.
type input struct {
	shape
	g      *mcmdist.Graph
	sess   session
	hkCard int
}

// sampleRec is one successful solve.
type sampleRec struct {
	graph          int // index into the run's inputs
	timed, traced  bool
	wall           time.Duration
	alloc, mallocs uint64
	gcs            uint32
	o              outcome
	fp             uint64
	counts         exactCounts
	unattributed   time.Duration
}

// run generates the workload's graphs, sets each up, runs the closed loop
// of solves for the configured time, and checks and summarizes them.
//
// A run solves several graphs, all made from its seed, in turn: solve
// time depends on a graph's phase and iteration counts, so one graph per
// run would make the seed, not the code, set most of the spread between
// runs.
func run(w workload, c config) (*report, error) {
	scale := c.scale
	if scale == 0 {
		scale = w.scale
	}
	var tr *tracer
	if c.trace {
		tr = &tracer{}
	}
	rep := &report{prov: provenance{
		Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}}
	rep.prov.Commit, rep.prov.SourceSHA256 = sourceIdentity()

	// Each graph is generated, untimed, then set up: FromEdges plus the
	// workload's own set-up, repeated so that setup_s is a median. The
	// first set-up of a graph grows the heap and is not counted; the last
	// serves the loop. setup_s totals one set-up of every graph.
	ins := make([]*input, graphsPerRun)
	defer func() {
		for _, in := range ins {
			if in != nil && in.sess != nil {
				in.sess.close()
			}
		}
	}()
	setupTotals := make([]time.Duration, setupReps)
	var fromEdgesS, openS []float64
	for k := range ins {
		seed := c.seed*graphsPerRun + int64(k)
		a, err := w.graph(scale, seed)
		if err != nil {
			return nil, fmt.Errorf("generating %s graph %d: %w", w.name, k, err)
		}
		in := &input{shape: shape{Seed: seed, Rows: a.NRows, Cols: a.NCols, Edges: a.NNZ()}}
		ins[k] = in
		edges := edgeList(a)
		for i := 0; i <= setupReps; i++ {
			if in.sess != nil {
				in.sess.close()
				in.sess = nil
			}
			runtime.GC()
			t1 := time.Now()
			d, err := tr.measure("mcmdist.from_edges", func() (err error) {
				in.g, err = mcmdist.FromEdges(in.Rows, in.Cols, edges)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("FromEdges: %w", err)
			}
			t2 := time.Now()
			if in.sess, err = w.open(in.g, tr); err != nil {
				return nil, err
			}
			if i > 0 {
				setupTotals[i-1] += time.Since(t1)
				fromEdgesS = append(fromEdgesS, d.Seconds())
				openS = append(openS, time.Since(t2).Seconds())
			}
		}
	}
	setupS := make([]float64, len(setupTotals))
	for i, d := range setupTotals {
		setupS[i] = d.Seconds()
	}

	// The closed loop: untimed warm-up solves, checked like the rest (one
	// per warm session, else one for the process), then timed solves over
	// the graphs in turn until the deadline. A traced run alternates
	// untraced and traced rounds over the graphs, which gives the tracing
	// overhead.
	var recs []sampleRec
	one := func(k int, timed, traced bool) {
		mt := &meter{}
		if traced {
			mt.tr = tr
		}
		rep.attempted++
		o, err := safeSample(ins[k].sess, mt)
		if err != nil {
			rep.fail("solve %d (graph %d): %v", rep.attempted, k, err)
			return
		}
		tr.addLedger(mt.span, o.st.WallByOp)
		recs = append(recs, sampleRec{
			graph: k, timed: timed, traced: traced, wall: mt.wall,
			alloc: mt.alloc, mallocs: mt.mallocs, gcs: mt.gcs,
			o: o, fp: fingerprint(o.m), counts: countsOf(o),
			unattributed: mt.wall - ledgerTotal(o.st),
		})
	}
	for k := range ins {
		if k == 0 || w.distributed {
			one(k, false, false)
		}
	}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; i < minSamples || time.Now().Before(deadline); i++ {
		round := i / len(ins)
		one(i%len(ins), true, c.trace && round%2 == 1)
	}

	// After the timer: the serial yardstick, then the correctness and
	// determinism gates over every solve.
	reps := 1
	if c.trace {
		reps = yardReps
	}
	var hkS, pfS, verifyS []float64
	for k, in := range ins {
		for i := 0; i < reps; i++ {
			var hk *mcmdist.Matching
			d, err := tr.measure("matching.hk", func() (err error) {
				hk, err = mcmdist.MaximumMatchingSerial(in.g, mcmdist.HopcroftKarp, nil)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("Hopcroft–Karp on graph %d: %w", k, err)
			}
			hkS = append(hkS, d.Seconds())
			in.hkCard = hk.Cardinality()
			if !c.trace {
				continue
			}
			d, err = tr.measure("matching.pf", func() error {
				_, err := mcmdist.MaximumMatchingSerial(in.g, mcmdist.PothenFan, nil)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("Pothen–Fan on graph %d: %w", k, err)
			}
			pfS = append(pfS, d.Seconds())
		}
		in.HKCardinality = in.hkCard
	}

	type key struct {
		graph int
		fp    uint64
	}
	verdict := map[key]error{}
	first := map[int]exactCounts{}
	var ok []sampleRec
	for i, r := range recs {
		kv := key{r.graph, r.fp}
		if _, done := verdict[kv]; !done {
			for j := 0; j < reps; j++ {
				var err error
				d, _ := tr.measure("verify.maximum", func() error {
					err = checkMatching(ins[r.graph].g, r.o.m, ins[r.graph].hkCard)
					return nil
				})
				verdict[kv] = err
				verifyS = append(verifyS, d.Seconds())
			}
		}
		if _, seen := first[r.graph]; !seen {
			first[r.graph] = r.counts
		}
		switch {
		case verdict[kv] != nil:
			rep.fail("matching of successful solve %d (graph %d): %v", i, r.graph, verdict[kv])
		case r.counts != first[r.graph]:
			rep.fail("exact counts of solve %d (graph %d) differ from its first solve: %+v vs %+v",
				i, r.graph, r.counts, first[r.graph])
		default:
			ok = append(ok, r)
		}
	}

	untraced := pick(ok, func(r sampleRec) bool { return r.timed && !r.traced })
	for k, in := range ins {
		if c, seen := first[k]; seen {
			in.Phases, in.Iterations = int(c.Phases), int(c.Iterations)
		}
		of := pick(untraced, func(r sampleRec) bool { return r.graph == k })
		in.SolveS = median(collect(of, func(r sampleRec) float64 { return r.wall.Seconds() }))
		rep.prov.Graphs = append(rep.prov.Graphs, in.shape)
	}
	walls := collect(untraced, func(r sampleRec) float64 { return r.wall.Seconds() })
	solveS := median(walls)
	tailS, tailPct := tail(walls)
	rep.prov.Samples, rep.prov.TailPercent = len(walls), tailPct
	if !c.trace {
		rep.metrics = []metric{
			{"solve_s", solveS, "s"},
			{"solve_tail_s", tailS, "s"},
			{"setup_s", median(setupS), "s"},
			{"alloc_bytes", median(collect(untraced, func(r sampleRec) float64 { return float64(r.alloc) })), "bytes"},
		}
		return rep, nil
	}

	distributeS := openS
	if !w.distributed {
		// The solve distributes the whole matrix itself; time the same
		// split outside it.
		distributeS = nil
		for _, in := range ins {
			for i := 0; i < reps; i++ {
				runtime.GC()
				d, err := tr.measure("spmat.distribute", func() error {
					dg, err := mcmdist.Distribute(in.g, 1)
					if err == nil {
						dg.Close()
					}
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("Distribute: %w", err)
				}
				distributeS = append(distributeS, d.Seconds())
			}
		}
	}
	traced := pick(ok, func(r sampleRec) bool { return r.traced })
	perGraph := make([]sampleRec, 0, len(ins))
	for k := range ins {
		if of := pick(ok, func(r sampleRec) bool { return r.graph == k }); len(of) > 0 {
			perGraph = append(perGraph, of[0])
		}
	}
	rep.metrics = layerMetrics(traced, perGraph, layerInputs{
		solveS: solveS, fromEdgesS: fromEdgesS, distributeS: distributeS,
		hkS: hkS, pfS: pfS, verifyS: verifyS,
	})
	rep.selfRows = tr.selfTimes()
	return rep, nil
}

// layerInputs are the timings a traced run takes outside its solves.
type layerInputs struct {
	solveS                  float64 // untraced median solve
	fromEdgesS, distributeS []float64
	hkS, pfS, verifyS       []float64
}

// layerMetrics computes the per-layer metrics of a traced run: times are
// medians over its traced solves and over the set-up and yardstick
// repetitions; counts the program meters deterministically are medians
// over the graphs (one solve each, perGraph), so a seed always gives the
// same value.
func layerMetrics(traced, perGraph []sampleRec, in layerInputs) []metric {
	med := func(f func(r sampleRec) float64) float64 { return median(collect(traced, f)) }
	exact := func(f func(r sampleRec) float64) float64 { return median(collect(perGraph, f)) }
	wallOf := func(op string) func(r sampleRec) float64 {
		return func(r sampleRec) float64 { return r.o.st.WallByOp[op].Seconds() }
	}
	comm := func(op string, f func(mcmdist.CommStats) int64) func(r sampleRec) float64 {
		return func(r sampleRec) float64 { return float64(f(r.o.st.CommByOp[op])) }
	}
	work := func(cs mcmdist.CommStats) int64 { return cs.Work }
	words := func(cs mcmdist.CommStats) int64 { return cs.Words }
	msgs := func(cs mcmdist.CommStats) int64 { return cs.Msgs }
	commTime := func(exposed bool) func(r sampleRec) float64 {
		return func(r sampleRec) float64 {
			var d time.Duration
			for _, ct := range r.o.st.CommTimeByOp {
				if exposed {
					d += ct.Exposed
				} else {
					d += ct.Total
				}
			}
			return d.Seconds()
		}
	}
	count := func(f func(r sampleRec) int64) func(r sampleRec) float64 {
		return func(r sampleRec) float64 { return float64(f(r)) }
	}
	hk := median(in.hkS)
	return []metric{
		{"mcmdist.from_edges_s", median(in.fromEdgesS), "s"},
		{"spmat.distribute_s", median(in.distributeS), "s"},
		{"core.init_s", med(wallOf("init")), "s"},
		{"core.init_work", exact(comm("init", work)), "count"},
		{"core.init_words", exact(comm("init", words)), "count"},
		{"core.init_matched_frac", exact(func(r sampleRec) float64 {
			return float64(r.o.st.InitCardinality) / float64(max(r.o.st.Cardinality, 1))
		}), "ratio"},
		{"core.phases", exact(count(func(r sampleRec) int64 { return r.counts.Phases })), "count"},
		{"core.iterations", exact(count(func(r sampleRec) int64 { return r.counts.Iterations })), "count"},
		{"core.augment_s", med(wallOf("augment")), "s"},
		{"core.augment_paths", exact(count(func(r sampleRec) int64 { return int64(r.o.st.AugmentedPaths) })), "count"},
		{"core.other_s", med(wallOf("other")), "s"},
		{"core.unattributed_s", med(func(r sampleRec) float64 { return r.unattributed.Seconds() }), "s"},
		{"spmv.s", med(wallOf("spmv")), "s"},
		{"spmv.work", exact(comm("spmv", work)), "count"},
		{"spmv.words", exact(comm("spmv", words)), "count"},
		{"spmv.msgs", exact(comm("spmv", msgs)), "count"},
		{"dvec.invert_s", med(wallOf("invert")), "s"},
		{"dvec.invert_words", exact(comm("invert", words)), "count"},
		{"dvec.prune_s", med(wallOf("prune")), "s"},
		{"dvec.select_s", med(wallOf("select")), "s"},
		{"mpi.msgs", exact(count(func(r sampleRec) int64 { return r.counts.MPIMsgs })), "count"},
		{"mpi.words", exact(count(func(r sampleRec) int64 { return r.counts.MPIWords })), "count"},
		{"mpi.comm_total_s", med(commTime(false)), "s"},
		{"mpi.comm_exposed_s", med(commTime(true)), "s"},
		{"tcpnet.frames", exact(count(func(r sampleRec) int64 { return r.o.wire.Frames })), "count"},
		{"tcpnet.writes", med(count(func(r sampleRec) int64 { return r.o.wire.Writes })), "count"},
		{"tcpnet.bytes", med(count(func(r sampleRec) int64 { return r.o.wire.Bytes })), "bytes"},
		{"tcpnet.bringup_s", med(func(r sampleRec) float64 { return r.o.bringup.Seconds() }), "s"},
		{"tcpnet.close_s", med(func(r sampleRec) float64 { return r.o.closing.Seconds() }), "s"},
		{"rt.mallocs", med(func(r sampleRec) float64 { return float64(r.mallocs) }), "count"},
		{"rt.gc_cycles", med(func(r sampleRec) float64 { return float64(r.gcs) }), "count"},
		{"matching.hk_s", hk, "s"},
		{"matching.pf_s", median(in.pfS), "s"},
		{"matching.hk_ratio", ratio(in.solveS, hk), "ratio"},
		{"verify.maximum_s", median(in.verifyS), "s"},
		{"trace.overhead_frac", ratio(med(func(r sampleRec) float64 { return r.wall.Seconds() }), in.solveS) - 1, "ratio"},
	}
}

// ratio is a / b, or 0 when a run that failed left b without samples.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// safeSample runs one sample, reporting a panic as an error.
func safeSample(s session, mt *meter) (o outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	o, err = s.sample(mt)
	if err == nil && (o.m == nil || o.st == nil) {
		err = fmt.Errorf("solve returned no matching or no stats")
	}
	return o, err
}

func pick(rs []sampleRec, keep func(sampleRec) bool) []sampleRec {
	var out []sampleRec
	for _, r := range rs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func collect(rs []sampleRec, f func(sampleRec) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest sample with at least ten samples above it, and the
// percentile it stands at; with ten or fewer samples it is the largest.
func tail(xs []float64) (v, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}
