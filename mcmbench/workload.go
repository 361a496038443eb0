package main

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"
	"unsafe"

	"mcmdist"
	"mcmdist/internal/gen"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// workload is one named input and solve loop. graph makes the input from
// the seed, untimed; open does the program's set-up beyond FromEdges, which
// setup_s times.
type workload struct {
	name  string
	scale int // default graph scale: 2^scale vertices per side
	graph func(scale int, seed int64) (*spmat.CSC, error)
	open  func(g *mcmdist.Graph, tr *tracer) (session, error)
	// distributed marks a set-up that distributes the graph once; its
	// sessions keep warm per-rank state between solves.
	distributed bool
}

// The workloads; README.md gives the reasons for each in full.
var workloads = []workload{
	// One-shot solves at p=1 with the mindegree initializer: no
	// communication, so the time is per-solve overhead and the initializer.
	{
		name:  "g500-p1",
		scale: 16,
		graph: func(scale int, seed int64) (*spmat.CSC, error) {
			return rmat.Generate(rmat.G500, scale, 8, seed)
		},
		open: func(g *mcmdist.Graph, _ *tracer) (session, error) {
			return &oneShot{g: g, opts: mcmdist.Options{Procs: 1, Threads: 1, Init: mcmdist.DynamicMindegreeInit}}, nil
		},
	},
	// A high-diameter graph distributed once on an in-process 2x2 grid:
	// hundreds of SpMV, vector-primitive and collective rounds per solve.
	{
		name:        "road-p4",
		scale:       16,
		graph:       roadGraph,
		distributed: true,
		open: func(g *mcmdist.Graph, tr *tracer) (session, error) {
			var dg *mcmdist.DistributedGraph
			_, err := tr.measure("spmat.distribute", func() (err error) {
				dg, err = mcmdist.Distribute(g, 4)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("Distribute: %w", err)
			}
			return &warm{dg: dg, opts: mcmdist.Options{Threads: 1, Init: mcmdist.GreedyInit}}, nil
		},
	},
	// The same graphs on a 1x2 loopback tcp world with compression: the
	// only workload that encodes frames and writes sockets.
	{
		name:  "road-tcp",
		scale: 16,
		graph: roadGraph,
		open: func(g *mcmdist.Graph, tr *tracer) (session, error) {
			s := &tcpWorld{g: g, opts: mcmdist.Options{
				Procs: 2, GridRows: 1, GridCols: 2, Threads: 1, Init: mcmdist.GreedyInit, Compress: true,
			}}
			// Set-up brings a world up once and closes it again; each
			// solve then brings up its own.
			trs, _, err := s.bringUp(tr)
			if err != nil {
				return nil, err
			}
			if err := closeAll(trs); err != nil {
				return nil, fmt.Errorf("closing the set-up world: %w", err)
			}
			return s, nil
		},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// roadGraph is the road_usa stand-in with the benchmark seed as its
// generator seed.
func roadGraph(scale int, seed int64) (*spmat.CSC, error) {
	sp, err := gen.FindSpec("road_usa")
	if err != nil {
		return nil, err
	}
	sp.Seed = seed
	return gen.Generate(sp, scale)
}

// edgeList flattens a generated matrix into the (row, col) list the program
// is handed through FromEdges.
func edgeList(a *spmat.CSC) [][2]int {
	edges := make([][2]int, 0, a.NNZ())
	for j := 0; j < a.NCols; j++ {
		for _, i := range a.Col(j) {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

// outcome is what one solve returns. On tcp, st combines both endpoints and
// wire sums their outbound counters; bringup and closing time the world
// around the solve.
type outcome struct {
	m                *mcmdist.Matching
	st               *mcmdist.Stats
	wire             tcpnet.WireStats
	bringup, closing time.Duration
}

// session runs the timed samples of one workload. sample calls mt.start
// and mt.stop around exactly the part solve_s times.
type session interface {
	sample(mt *meter) (outcome, error)
	close()
}

// oneShot solves from the graph each time: distribute, initialize, run the
// phases, gather.
type oneShot struct {
	g    *mcmdist.Graph
	opts mcmdist.Options
}

func (s *oneShot) sample(mt *meter) (outcome, error) {
	mt.start()
	m, st, err := mcmdist.MaximumMatching(s.g, s.opts)
	mt.stop()
	return outcome{m: m, st: st}, err
}

func (s *oneShot) close() {}

// warm solves on a graph distributed once, with warm per-rank contexts.
type warm struct {
	dg   *mcmdist.DistributedGraph
	opts mcmdist.Options
}

func (s *warm) sample(mt *meter) (outcome, error) {
	mt.start()
	m, st, err := s.dg.MaximumMatching(s.opts)
	mt.stop()
	return outcome{m: m, st: st}, err
}

func (s *warm) close() { s.dg.Close() }

// tcpWorld solves on a fresh loopback tcp world each sample: an endpoint
// serves one solve.
type tcpWorld struct {
	g    *mcmdist.Graph
	opts mcmdist.Options
}

func (s *tcpWorld) bringUp(tr *tracer) ([]*mcmdist.Transport, time.Duration, error) {
	var trs []*mcmdist.Transport
	d, err := tr.measure("tcpnet.bringup", func() (err error) {
		trs, err = mcmdist.LoopbackTCP(s.opts.Procs)
		return err
	})
	if err != nil {
		return nil, d, fmt.Errorf("LoopbackTCP: %w", err)
	}
	return trs, d, nil
}

func (s *tcpWorld) sample(mt *meter) (outcome, error) {
	var out outcome
	trs, d, err := s.bringUp(mt.tr)
	if err != nil {
		return out, err
	}
	out.bringup = d

	ms := make([]*mcmdist.Matching, len(trs))
	sts := make([]*mcmdist.Stats, len(trs))
	errs := make([]error, len(trs))
	mt.start()
	var wg sync.WaitGroup
	for i, t := range trs {
		wg.Add(1)
		go func(i int, t *mcmdist.Transport) {
			defer wg.Done()
			ms[i], sts[i], errs[i] = mcmdist.MaximumMatchingOn(t, s.g, s.opts)
		}(i, t)
	}
	wg.Wait()
	mt.stop()

	for _, t := range trs {
		ws, err := wireStats(t)
		errs = append(errs, err)
		out.wire.Frames += ws.Frames
		out.wire.Writes += ws.Writes
		out.wire.Bytes += ws.Bytes
	}
	out.closing, _ = mt.tr.measure("tcpnet.close", func() error {
		errs = append(errs, closeAll(trs))
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	for i := 1; i < len(ms); i++ {
		if fingerprint(ms[i]) != fingerprint(ms[0]) {
			return out, fmt.Errorf("endpoint %d returned a different matching than endpoint 0", i)
		}
	}
	out.m, out.st = ms[0], combine(sts)
	return out, nil
}

func (s *tcpWorld) close() {}

// closeAll closes every endpoint concurrently, as separate processes would.
func closeAll(trs []*mcmdist.Transport) error {
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i, t := range trs {
		wg.Add(1)
		go func(i int, t *mcmdist.Transport) {
			defer wg.Done()
			errs[i] = t.Close()
		}(i, t)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// wireStats reads an endpoint's outbound wire counters. The public
// Transport keeps its backend endpoint in an unexported field, so this
// reads that field; a layout change makes it fail loudly, not silently.
func wireStats(t *mcmdist.Transport) (tcpnet.WireStats, error) {
	f := reflect.ValueOf(t).Elem().Field(0)
	if f.Type() != reflect.TypeOf((*mpi.Transport)(nil)).Elem() {
		return tcpnet.WireStats{}, fmt.Errorf("mcmdist.Transport field 0 is %v, not mpi.Transport", f.Type())
	}
	ep := *(*mpi.Transport)(unsafe.Pointer(f.UnsafeAddr()))
	n, ok := ep.(*tcpnet.Net)
	if !ok {
		return tcpnet.WireStats{}, fmt.Errorf("transport backend is %T, not *tcpnet.Net", ep)
	}
	return n.WireStats(), nil
}

// combine merges the per-endpoint Stats of one tcp solve the way the
// in-process solve merges its ranks: per-op maxima for the ledgers, and
// each rank's meter from the endpoint that hosts it.
func combine(sts []*mcmdist.Stats) *mcmdist.Stats {
	c := *sts[0]
	c.WallByOp = map[string]time.Duration{}
	c.CommByOp = map[string]mcmdist.CommStats{}
	c.CommTimeByOp = map[string]mcmdist.CommTime{}
	c.PerRank = make([]mcmdist.CommStats, len(sts[0].PerRank))
	for _, st := range sts {
		for op, d := range st.WallByOp {
			c.WallByOp[op] = max(c.WallByOp[op], d)
		}
		for op, cs := range st.CommByOp {
			o := c.CommByOp[op]
			c.CommByOp[op] = mcmdist.CommStats{Msgs: max(o.Msgs, cs.Msgs), Words: max(o.Words, cs.Words), Work: max(o.Work, cs.Work)}
		}
		for op, ct := range st.CommTimeByOp {
			o := c.CommTimeByOp[op]
			c.CommTimeByOp[op] = mcmdist.CommTime{Total: max(o.Total, ct.Total), Exposed: max(o.Exposed, ct.Exposed)}
		}
		for r, cs := range st.PerRank {
			c.PerRank[r].Msgs += cs.Msgs
			c.PerRank[r].Words += cs.Words
			c.PerRank[r].Work += cs.Work
		}
	}
	return &c
}
