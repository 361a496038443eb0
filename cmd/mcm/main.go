// Command mcm computes a maximum cardinality matching of a bipartite graph
// with the distributed MCM-DIST algorithm on simulated ranks.
//
// The input is either a Matrix Market file (-in), a synthetic R-MAT matrix
// (-rmat g500|ssca|er -scale N), or a Table II stand-in (-matrix name
// -scale N).
//
// By default every rank is a goroutine of this process (the in-process
// transport). With -transport tcp the solve spans OS processes: rank 0
// (this binary) listens on -addr, coordinates the rendezvous, and ships the
// job spec to the cmd/mcmrank workers that join; `mcm -transport tcp
// -rank N` is an alternative worker spelling. See docs/TRANSPORT.md.
//
// Observability (docs/OBSERVABILITY.md): -trace-out writes the solve's span
// timeline as Perfetto-loadable trace JSON, -timeseries the per-iteration
// series as CSV, -metrics-out a Prometheus text snapshot, and -metrics-addr
// serves the live registry at /metrics while the solve runs. On a tcp world
// the artifacts are whole-world merges: the workers ship their observations
// at solve end and the coordinator aligns and merges them. -flight-dir arms
// the crash flight recorder — a failed generation leaves
// flight-g<gen>-r<rank>.dump post-mortems there (decode with cmd/tracelint).
// -cpuprofile writes a pprof CPU profile of this process; give each process
// of a tcp world (cmd/mcmrank takes the same flag) its own path.
//
// Examples:
//
//	mcm -rmat g500 -scale 14 -procs 16 -init mindegree
//	mcm -in graph.mtx -procs 4 -breakdown
//	mcm -matrix road_usa -scale 12 -procs 16 -verify
//	mcm -rmat g500 -scale 10 -procs 4 -transport tcp -addr 127.0.0.1:9301
//	mcm -rmat g500 -scale 10 -procs 4 -transport tcp -addr 127.0.0.1:9301 \
//	    -trace-out world.json -timeseries world.csv -metrics-out world.prom
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mcmdist"
	"mcmdist/internal/core"
	"mcmdist/internal/distjob"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
	"mcmdist/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcm: ")

	in := flag.String("in", "", "Matrix Market input file")
	rmatClass := flag.String("rmat", "", "generate an R-MAT matrix: g500, ssca or er")
	matrix := flag.String("matrix", "", "generate a Table II stand-in by name (see -list)")
	list := flag.Bool("list", false, "list the Table II stand-in names and exit")
	scale := flag.Int("scale", 12, "scale of generated matrices (2^scale vertices per side)")
	seed := flag.Int64("seed", 1, "generator / permutation seed")
	procs := flag.Int("procs", 4, "simulated ranks (perfect square)")
	threads := flag.Int("threads", 12, "worker threads per rank (also divides the modeled work term)")
	initAlg := flag.String("init", "mindegree", "initializer: none, greedy, karpsipser, mindegree")
	semiringFlag := flag.String("semiring", "minparent", "SpMV semiring: minparent, randroot, randparent")
	augment := flag.String("augment", "auto", "augmentation: auto, level, path")
	noPrune := flag.Bool("no-prune", false, "disable tree pruning (Fig. 8 ablation)")
	direction := flag.String("direction", "push", "SpMV kernel policy: push, pull, or auto (bottom-up BFS for large frontiers)")
	compress := flag.Bool("compress", false, "enable the delta-varint wire codec (tcp payload compression; all backends meter the encoded volume)")
	engine := flag.String("engine", "bfs", "matching engine: bfs, bfs-ss, bfs-graft, auction, or auto (cost-model selection)")
	serial := flag.String("serial", "", "also run a serial baseline for comparison: hk, pf, msbfs, graft, pr")
	noPermute := flag.Bool("no-permute", false, "skip the load-balancing random permutation")
	verify := flag.Bool("verify", false, "certify the result with the König vertex-cover certificate")
	breakdown := flag.Bool("breakdown", false, "print the per-primitive runtime breakdown")
	trace := flag.Bool("trace", false, "print one line per iteration (BFS level or auction round)")
	traceOut := flag.String("trace-out", "", "write a Perfetto/Chrome trace of the solve to this file (tcp coordinator: one merged world trace, all ranks)")
	timeseries := flag.String("timeseries", "", "write the per-iteration time-series CSV to this file (tcp coordinator: rank-merged across the world)")
	metricsAddr := flag.String("metrics-addr", "", "serve the metrics registry in Prometheus text format at this address for the duration of the run (tcp coordinator: world-aggregated at solve end)")
	metricsOut := flag.String("metrics-out", "", "write the final metrics registry in Prometheus text format to this file")
	flightDir := flag.String("flight-dir", "", "tcp transport: crash flight recorder directory — on a failed attempt every surviving process dumps its span-ring tail, meters and generation here")
	out := flag.String("out", "", "write the matching as 'row col' lines to this file")
	transport := flag.String("transport", "inproc", "transport backend: inproc (ranks are goroutines) or tcp (ranks are OS processes)")
	addr := flag.String("addr", "", "tcp transport: rendezvous address (rank 0 listens, workers dial)")
	rank := flag.Int("rank", 0, "tcp transport: the world rank this process hosts; rank 0 coordinates and ships the job, ranks >= 1 join as workers and ignore the graph/solver flags")
	recoverFlag := flag.Bool("recover", false, "tcp transport: supervise the world across failures — restart it up to -max-restarts times, resuming from the last checkpoint")
	maxRestarts := flag.Int("max-restarts", 3, "tcp transport: world restarts before giving up (with -recover)")
	ckptEvery := flag.Int("checkpoint-every", 1, "tcp transport: checkpoint every Nth phase (with -recover); 0 restarts from scratch")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of this process to this path (written when the process exits normally)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(mcmdist.TableIINames(), "\n"))
		return
	}

	switch *transport {
	case "inproc":
		if *addr != "" || *rank != 0 {
			log.Fatal("-addr and -rank require -transport tcp")
		}
	case "tcp":
		if *addr == "" {
			log.Fatal("-transport tcp requires -addr")
		}
		if *rank < 0 {
			log.Fatalf("-rank %d out of range", *rank)
		}
	default:
		log.Fatalf("unknown -transport %q", *transport)
	}
	if *recoverFlag && *transport != "tcp" {
		log.Fatal("-recover requires -transport tcp (in-process recovery is the library's SolveRecoverable)")
	}
	if *flightDir != "" && *transport != "tcp" {
		log.Fatal("-flight-dir requires -transport tcp (the flight recorder captures multi-process failures)")
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	if *transport == "tcp" && *rank > 0 {
		// Worker mode: the coordinator ships the job spec, so every graph
		// and solver flag is ignored here — mcmrank with mcm's clothes on.
		runWorker(*addr, *rank, *out)
		return
	}

	g, err := loadGraph(*in, *rmatClass, *matrix, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)

	opts := mcmdist.Options{
		Procs:        *procs,
		Threads:      *threads,
		DisablePrune: *noPrune,
		Direction:    *direction,
		Compress:     *compress,
		Engine:       *engine,
		Permute:      !*noPermute,
		Seed:         *seed,
	}
	switch *initAlg {
	case "none":
		opts.Init = mcmdist.NoInit
	case "greedy":
		opts.Init = mcmdist.GreedyInit
	case "karpsipser":
		opts.Init = mcmdist.KarpSipserInit
	case "mindegree":
		opts.Init = mcmdist.DynamicMindegreeInit
	default:
		log.Fatalf("unknown -init %q", *initAlg)
	}
	switch *semiringFlag {
	case "minparent":
		opts.Semiring = mcmdist.MinParent
	case "randroot":
		opts.Semiring = mcmdist.RandRoot
	case "randparent":
		opts.Semiring = mcmdist.RandParent
	default:
		log.Fatalf("unknown -semiring %q", *semiringFlag)
	}
	if *trace {
		opts.Trace = os.Stdout
	}
	wantMetrics := *metricsAddr != "" || *metricsOut != ""
	if *traceOut != "" || *timeseries != "" || wantMetrics {
		opts.Observe = &mcmdist.Observe{
			Spans:      *traceOut != "",
			TimeSeries: *timeseries != "",
			Metrics:    wantMetrics,
		}
	}
	var msrv metricsServer
	if *metricsAddr != "" {
		bound, err := msrv.listen(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serving metrics at http://%s/metrics\n", bound)
		opts.Observe.OnLive = func(r *mcmdist.ObsReport) { msrv.install(r.MetricsHandler()) }
	}
	switch *augment {
	case "auto":
		opts.Augment = mcmdist.AutoAugment
	case "level":
		opts.Augment = mcmdist.LevelParallel
	case "path":
		opts.Augment = mcmdist.PathParallel
	default:
		log.Fatalf("unknown -augment %q", *augment)
	}

	var tr *mcmdist.Transport
	if *transport == "tcp" {
		spec := &distjob.Spec{
			RMAT: *rmatClass, Matrix: *matrix, Scale: *scale, Seed: *seed,
			Procs: *procs, Threads: *threads,
			Init: *initAlg, Semiring: *semiringFlag, Augment: *augment,
			NoPrune: *noPrune, Direction: *direction,
			Compress: *compress, Engine: *engine, NoPermute: *noPermute,
			ObsSpans: *traceOut != "", ObsSeries: *timeseries != "", ObsMetrics: wantMetrics,
			FlightDir: *flightDir,
		}
		if *in != "" {
			// Workers may not share our filesystem: embed the file.
			content, err := os.ReadFile(*in)
			if err != nil {
				log.Fatal(err)
			}
			spec.MTX = string(content)
		}
		if *recoverFlag {
			runSupervisor(*addr, spec, *maxRestarts, *ckptEvery, *verify, *out,
				obsOutputs{trace: *traceOut, series: *timeseries, metrics: *metricsOut, srv: &msrv})
			return
		}
		blob, err := spec.Encode()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("coordinating %d-rank tcp world at %s (waiting for %d workers)\n",
			*procs, *addr, *procs-1)
		if tr, err = mcmdist.CoordinateTCPWithConfig(*addr, *procs, blob); err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
	}

	m, st, err := mcmdist.MaximumMatchingOn(tr, g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("|M| = %d (initializer found %d), deficiency %d, engine %s\n",
		st.Cardinality, st.InitCardinality, g.Cols()-st.Cardinality, st.Engine)
	fmt.Printf("phases %d, iterations %d (push %d / pull %d), augmenting paths %d (level-parallel %d, path-parallel %d)\n",
		st.Phases, st.Iterations, st.PushIterations, st.PullIterations,
		st.AugmentedPaths, st.LevelParallelAugments, st.PathParallelAugments)
	fmt.Printf("modeled time on %s with p=%d t=%d: %.3gs\n",
		mcmdist.EdisonXC30.Name, st.Procs, st.Threads, st.ModeledSeconds(mcmdist.EdisonXC30))

	if *breakdown {
		bd := st.ModeledBreakdown(mcmdist.EdisonXC30)
		keys := make([]string, 0, len(bd))
		for k := range bd {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("breakdown (modeled seconds):")
		for _, k := range keys {
			fmt.Printf("  %-8s %.3g  (wall %v)\n", k, bd[k], st.WallByOp[k])
		}
	}

	if st.Obs != nil {
		writeObsOutputs(st.Obs, *traceOut, *timeseries, *metricsOut)
	}

	if *verify {
		if err := g.VerifyMaximum(m); err != nil {
			log.Fatalf("verification FAILED: %v", err)
		}
		fmt.Println("verified: König certificate confirms the matching is maximum")
	}

	if *out != "" {
		if err := writeMatching(*out, m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("matching written to %s\n", *out)
	}

	if *serial != "" {
		alg, ok := map[string]mcmdist.SerialAlgorithm{
			"hk": mcmdist.HopcroftKarp, "pf": mcmdist.PothenFan,
			"msbfs": mcmdist.MSBFS, "graft": mcmdist.MSBFSGraft,
			"pr": mcmdist.PushRelabelAlg,
		}[*serial]
		if !ok {
			log.Fatalf("unknown -serial %q", *serial)
		}
		start := time.Now()
		sm, err := mcmdist.MaximumMatchingSerial(g, alg, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serial %s: |M| = %d in %v", *serial, sm.Cardinality(), time.Since(start))
		if sm.Cardinality() == st.Cardinality {
			fmt.Println(" (agrees with MCM-DIST)")
		} else {
			fmt.Println(" (DISAGREES with MCM-DIST!)")
		}
	}
}

// runSupervisor is the coordinator side of a recoverable multi-process
// solve: it supervises the world across generations, restarting failed
// worlds from the last phase-boundary checkpoint (see internal/distjob).
func runSupervisor(addr string, spec *distjob.Spec, maxRestarts, ckptEvery int, verifyFlag bool, out string, oo obsOutputs) {
	spec.CheckpointEvery = ckptEvery
	pol := distjob.SupervisePolicy{RecoveryPolicy: core.RecoveryPolicy{MaxRetries: maxRestarts}, Log: log.Printf}
	fmt.Printf("supervising %d-rank tcp world at %s (waiting for %d workers, up to %d restarts)\n",
		spec.Procs, addr, spec.Procs-1, maxRestarts)
	res, stats, err := distjob.Supervise(addr, spec, tcpnet.Options{}, pol)
	reportFlightDumps(stats, spec.FlightDir)
	if err != nil {
		for _, ge := range stats.Errors {
			log.Printf("generation error: %v", ge)
		}
		log.Fatal(err)
	}
	fmt.Printf("|M| = %d after %d generation(s), %d restart(s)",
		res.Stats.Cardinality, stats.Attempts, stats.Retries)
	if stats.Retries > 0 {
		fmt.Printf(" (resumed from phase %d)", stats.ResumedPhase)
	}
	fmt.Println()
	if stats.Obs != nil {
		oo.srv.install(collectorOutputs{stats.Obs}.metricsHandler())
		writeObsOutputs(collectorOutputs{stats.Obs}, oo.trace, oo.series, oo.metrics)
	}
	if verifyFlag {
		a, err := spec.BuildMatrix()
		if err != nil {
			log.Fatal(err)
		}
		if err := verify.Maximum(a, res.Matching); err != nil {
			log.Fatalf("verification FAILED: %v", err)
		}
		fmt.Println("verified: König certificate confirms the matching is maximum")
	}
	if out != "" {
		if err := writeMateVector(out, res.Matching); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("matching written to %s\n", out)
	}
}

// runWorker joins a TCP world as a non-coordinator rank: the job spec
// arrives in the roster exchange, and the graph and configuration are
// rebuilt locally from it (see internal/distjob). A supervised job makes
// the worker rejoin restarted generations until one completes.
func runWorker(addr string, rank int, out string) {
	log.SetPrefix(fmt.Sprintf("mcm[rank %d]: ", rank))
	res, err := distjob.WorkLoop(addr, rank, tcpnet.Options{}, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("|M| = %d (worker rank %d of %d)\n",
		res.Stats.Cardinality, rank, res.Procs)
	if out != "" {
		if err := writeMateVector(out, res.Matching); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("matching written to %s\n", out)
	}
}

// obsOutputs carries the observability artifact destinations into the
// supervisor path.
type obsOutputs struct {
	trace, series, metrics string
	srv                    *metricsServer
}

// obsWriter is the slice of the observability report the artifact writer
// needs; *mcmdist.ObsReport and collectorOutputs both satisfy it.
type obsWriter interface {
	WriteTrace(io.Writer) error
	WriteTimeSeriesCSV(io.Writer) error
	WriteMetrics(io.Writer) error
}

// collectorOutputs adapts the supervisor path's internal collector (the
// final generation's merged world observation) to obsWriter.
type collectorOutputs struct{ col *obs.Collector }

func (c collectorOutputs) WriteTrace(w io.Writer) error         { return c.col.WriteTrace(w) }
func (c collectorOutputs) WriteTimeSeriesCSV(w io.Writer) error { return c.col.WriteSeriesCSV(w) }
func (c collectorOutputs) WriteMetrics(w io.Writer) error {
	reg := c.col.Registry()
	if reg == nil {
		return nil
	}
	return reg.WritePrometheus(w)
}

func (c collectorOutputs) metricsHandler() http.Handler {
	reg := c.col.Registry()
	if reg == nil {
		return nil
	}
	return reg.Handler()
}

// writeObsOutputs writes whichever observability artifacts were requested:
// the merged Perfetto trace, the rank-merged time-series CSV, and the final
// metrics registry in Prometheus text format.
func writeObsOutputs(r obsWriter, traceOut, seriesOut, metricsOut string) {
	write := func(path, what string, f func(io.Writer) error) {
		if path == "" {
			return
		}
		fh, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := f(fh); err != nil {
			fh.Close()
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	write(traceOut, "trace", r.WriteTrace)
	write(seriesOut, "time-series", r.WriteTimeSeriesCSV)
	write(metricsOut, "metrics", r.WriteMetrics)
}

// reportFlightDumps points the operator at the post-mortem bundle a
// supervised solve accumulated, whether or not it recovered.
func reportFlightDumps(stats *distjob.SuperviseStats, dir string) {
	if len(stats.FlightDumps) == 0 {
		return
	}
	fmt.Printf("flight recorder: %d dump(s) in %s\n", len(stats.FlightDumps), dir)
	for _, p := range stats.FlightDumps {
		fmt.Printf("  %s\n", p)
	}
}

// metricsServer serves /metrics for the duration of the run. Until the
// solve's registry comes live it answers 503, so a scrape during bootstrap
// fails soft instead of hanging.
type metricsServer struct {
	h atomic.Value // http.Handler
}

func (s *metricsServer) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", s)
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

func (s *metricsServer) install(h http.Handler) {
	if h != nil {
		s.h.Store(h)
	}
}

func (s *metricsServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, _ := s.h.Load().(http.Handler)
	if h == nil {
		http.Error(w, "registry not live yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// writeMateVector is writeMatching for the internal representation the
// worker path holds; both produce identical files for identical matchings.
func writeMateVector(path string, m *matching.Matching) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, j := range m.MateR {
		if j == semiring.None {
			continue
		}
		if _, err := fmt.Fprintf(f, "%d %d\n", i, j); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// writeMatching stores the matched pairs, one "row col" line each.
func writeMatching(path string, m *mcmdist.Matching) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, j := range m.MateR {
		if j == mcmdist.Unmatched {
			continue
		}
		if _, err := fmt.Fprintf(f, "%d %d\n", i, j); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func loadGraph(in, rmatClass, matrix string, scale int, seed int64) (*mcmdist.Graph, error) {
	nSources := 0
	for _, s := range []string{in, rmatClass, matrix} {
		if s != "" {
			nSources++
		}
	}
	if nSources != 1 {
		return nil, fmt.Errorf("specify exactly one of -in, -rmat, -matrix (got %d); see -h", nSources)
	}
	switch {
	case in != "":
		return mcmdist.FromMatrixMarketFile(in)
	case matrix != "":
		return mcmdist.TableII(matrix, scale)
	default:
		var class mcmdist.RMATClass
		switch strings.ToLower(rmatClass) {
		case "g500":
			class = mcmdist.G500
		case "ssca":
			class = mcmdist.SSCA
		case "er":
			class = mcmdist.ER
		default:
			return nil, fmt.Errorf("unknown -rmat class %q", rmatClass)
		}
		return mcmdist.RMAT(class, scale, 0, seed)
	}
}
