// Command bench regenerates the tables and figures of the paper's
// evaluation section (Azad & Buluç, IPDPS 2016, Section VI) on the
// simulated distributed-memory runtime.
//
// Usage:
//
//	bench -exp table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|augment|enginesweep|recovery|profile|all
//	      [-scale N] [-procs P] [-threads T] [-no-overlap] [-transport inproc|tcp]
//	      [-direction push|pull|auto] [-compress off|on]
//	      [-checkpoint-every K] [-fault none|crash|straggler|rma]
//	      [-fault-rank R] [-fault-at N] [-fault-delay D] [-watchdog D]
//	      [-json out.json] [-trace out.json] [-timeseries out.csv]
//	      [-metrics-addr :9090] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Scaling figures report times from the alpha-beta cost model (see
// internal/costmodel) next to measured host wall clock where the figure
// calls for it (fig7); EXPERIMENTS.md compares their shapes against the
// paper's. Larger -scale values sharpen the shapes but take longer.
//
// -json writes a machine-readable envelope: every experiment's row structs
// keyed by name, plus a measured solve profile (per-op wall seconds, exact
// communication meters, worker-pool utilization, heap traffic, and the
// per-iteration time-series) at the requested scale/procs/threads. When
// checkpointing or fault injection is requested (-checkpoint-every, -fault,
// or -exp recovery) the envelope also carries a recovery section:
// checkpoint wall time, bytes serialized, and retry count next to the clean
// solve's wall clock. -cpuprofile and -memprofile write pprof profiles
// covering the experiment runs. -transport selects the backend the measured
// profile solve runs on (inproc, or tcp for a loopback-socket world) and is
// recorded in the envelope; results are bit-identical across backends, only
// the wall clocks change.
//
// The observability plane (docs/OBSERVABILITY.md) instruments the measured
// profile solve: -trace writes its span timeline as Chrome trace_event JSON
// (load in ui.perfetto.dev), -timeseries writes the per-iteration series as
// CSV, and -metrics-addr serves live Prometheus metrics at /metrics while
// the bench runs. With -transport tcp each loopback endpoint records into
// its own collector and the rank-0 endpoint collects the world at solve end
// — the real multi-process shipping protocol — so the trace, the series
// (including the envelope's time_series), and the registry are whole-world
// merges exactly as a distributed deployment would produce. -exp profile
// runs only that measured solve — the quickest way to produce a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/experiments"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table2, fig3..fig9, augment, direction, dirsweep, enginesweep, gridshape, graft, quality, balance, ssms, dynamics, recovery, profile, all")
	scale := flag.Int("scale", 12, "matrix scale (~2^scale vertices per side)")
	procs := flag.Int("procs", 16, "simulated ranks for single-p experiments (perfect square)")
	threads := flag.Int("threads", 0, "threads per rank for hybrid configurations (0 = paper default of 12)")
	noOverlap := flag.Bool("no-overlap", false, "disable the split-phase compute/communication overlap (results are bit-identical; wall clocks and the exposed-comm ledger change)")
	matrix := flag.String("matrix", "road_usa", "matrix for the -json measured solve profile: a Table II stand-in name or g500/er/ssca (RMAT)")
	transport := flag.String("transport", "inproc", "transport backend for the measured solve profile: inproc, or tcp (loopback sockets, one endpoint per rank)")
	direction := flag.String("direction", "push", "SpMV kernel policy for the measured solve profile: push, pull, or auto")
	engine := flag.String("engine", "bfs", "matching engine for the measured solve profile: bfs, bfs-ss, bfs-graft, auction, or auto (cost-model selection)")
	compress := flag.String("compress", "off", "delta-varint wire compression for the measured solve profile: off or on (results are bit-identical; wire volume and the WordsEnc meters change)")
	jsonPath := flag.String("json", "", "write machine-readable results (experiment rows + measured solve profile) to this path")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint stride (phases) for the recovery benchmark; 0 means every phase")
	fault := flag.String("fault", "none", "fault injected into the recovery benchmark: none, crash, straggler, rma")
	faultRank := flag.Int("fault-rank", 1, "rank the fault is injected on")
	faultAt := flag.Int("fault-at", 8, "1-based collective (crash) or RMA op (rma) index that triggers the fault")
	faultDelay := flag.Duration("fault-delay", 100*time.Microsecond, "straggler sleep per triggering collective")
	watchdog := flag.Duration("watchdog", 0, "progress-watchdog timeout for the recovery benchmark; 0 leaves it off")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the experiment runs to this path")
	tracePath := flag.String("trace", "", "write the measured profile solve's span timeline as Chrome trace_event JSON (Perfetto-loadable) to this path")
	seriesPath := flag.String("timeseries", "", "write the measured profile solve's per-iteration time-series as CSV to this path")
	metricsAddr := flag.String("metrics-addr", "", "serve live Prometheus metrics at this address's /metrics while the bench runs (e.g. :9090)")
	flag.Parse()

	if *threads > 0 {
		experiments.DefaultThreads = *threads
	}
	experiments.DisableOverlap = *noOverlap
	if !slices.Contains(mpi.Transports(), *transport) {
		fmt.Fprintf(os.Stderr, "bench: unknown -transport %q (have %v)\n", *transport, mpi.Transports())
		os.Exit(1)
	}
	experiments.TransportBackend = *transport
	dir, err := core.ParseDirection(*direction)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	experiments.DefaultDirection = dir
	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	experiments.Engine = eng
	switch *compress {
	case "off":
	case "on":
		experiments.Compress = true
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -compress %q (want off or on)\n", *compress)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer stop()
	}

	w := os.Stdout
	results := make(map[string]any)
	recOpts := experiments.RecoveryOptions{
		FaultKind:       *fault,
		FaultRank:       *faultRank,
		FaultAt:         *faultAt,
		FaultDelay:      *faultDelay,
		CheckpointEvery: *checkpointEvery,
		Watchdog:        *watchdog,
	}
	var recProfile *experiments.RecoveryProfile
	runOne := func(name string) bool {
		var rows any
		switch name {
		case "table2":
			rows = experiments.Table2(w, *scale)
		case "fig3":
			rows = experiments.Fig3(w, min(*scale, 9), *procs)
		case "fig4":
			rows = experiments.Fig4(w, *scale, nil, nil)
		case "fig5":
			rows = experiments.Fig5(w, *scale, nil)
		case "fig6":
			rows = experiments.Fig6(w, []int{*scale - 2, *scale}, nil)
		case "fig7":
			rows = experiments.Fig7(w, *scale, nil)
		case "fig8":
			rows = experiments.Fig8(w, min(*scale, 9), *procs, nil)
		case "fig9":
			rows = experiments.Fig9(w, nil, 2048, 8)
		case "augment":
			rows = experiments.AugmentCrossover(w, 4, 16, nil)
		case "direction":
			rows = experiments.DirectionAblation(w, *scale, *procs, nil)
		case "dirsweep":
			rows = experiments.DirectionSweep(w, []int{min(*scale, 14), min(*scale+1, 15), min(*scale+2, 16)}, *procs)
		case "enginesweep":
			rows = experiments.EngineSweep(w, *matrix, *scale, *procs)
		case "gridshape":
			rows = experiments.GridShapeAblation(w, *scale, *procs)
		case "graft":
			rows = experiments.GraftAblation(w, *scale, *procs, nil)
		case "quality":
			rows = experiments.InitQuality(w, *scale, nil)
		case "balance":
			rows = experiments.BalanceAblation(w, *scale, *procs, nil)
		case "ssms":
			rows = experiments.SingleVsMultiSource(w, min(*scale, 10), *procs, nil)
		case "treebalance":
			rows = experiments.TreeBalance(w, *scale, *procs, nil)
		case "dynamics":
			experiments.FrontierDynamics(w, "road_usa", *scale, *procs)
		case "recovery":
			p := experiments.RecoveryBench(w, *matrix, *scale, *procs, recOpts)
			recProfile = &p
			rows = p
		case "profile":
			// Only the measured (observed) solve profile, handled below —
			// the quickest path to a trace or time-series artifact.
		default:
			return false
		}
		if rows != nil {
			results[name] = rows
		}
		fmt.Fprintln(w)
		return true
	}

	ok := true
	if *exp == "all" {
		for _, name := range []string{"table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "augment", "direction", "gridshape", "graft", "quality", "balance", "ssms", "treebalance"} {
			fmt.Fprintf(w, "=== %s ===\n", name)
			runOne(name)
		}
	} else if !runOne(*exp) {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", *exp)
		ok = false
	}

	// The measured profile solve runs whenever a consumer wants its output:
	// the -json envelope, a trace or time-series artifact, a live metrics
	// endpoint, or -exp profile itself.
	needProfile := ok && (*jsonPath != "" || *tracePath != "" || *seriesPath != "" ||
		*metricsAddr != "" || *exp == "profile")
	if needProfile {
		t := experiments.DefaultThreads
		var reg *obs.Registry
		if *metricsAddr != "" {
			reg = obs.NewRegistry()
			mux := http.NewServeMux()
			mux.Handle("/metrics", reg.Handler())
			go func() {
				if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
					fmt.Fprintf(os.Stderr, "bench: metrics server: %v\n", err)
				}
			}()
			fmt.Fprintf(w, "serving metrics at http://%s/metrics\n", *metricsAddr)
		}
		col := obs.NewCollector(*procs, obs.Options{
			Spans:      *tracePath != "",
			TimeSeries: true,
			Metrics:    reg,
		})
		prof := experiments.ProfileObserved(*matrix, *scale, *procs, t, col)
		if reg != nil {
			reg.Counter("mcm_solves_total", "Solves completed by this bench process.").Inc()
		}
		if *tracePath != "" {
			if err := writeArtifact(*tracePath, col.WriteTrace); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			prof.TraceFile = *tracePath
			fmt.Fprintf(w, "wrote %s (load in ui.perfetto.dev)\n", *tracePath)
		}
		if *seriesPath != "" {
			if err := writeArtifact(*seriesPath, col.WriteSeriesCSV); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			prof.SeriesFile = *seriesPath
			fmt.Fprintf(w, "wrote %s\n", *seriesPath)
		}
		fmt.Fprintf(w, "profile: %s scale=%d p=%d t=%d |M|=%d iters=%d wall=%.3fs\n",
			*matrix, *scale, prof.Procs, prof.Threads, prof.Cardinality,
			prof.Iterations, prof.WallSeconds)

		if *jsonPath != "" {
			if recProfile == nil && (*fault != "none" || *checkpointEvery > 0) {
				// Recovery instrumentation was requested but no recovery
				// experiment ran: measure it now (quietly) for the envelope.
				p := experiments.RecoveryBench(io.Discard, *matrix, *scale, *procs, recOpts)
				recProfile = &p
			}
			envelope := struct {
				Exp       string                       `json:"exp"`
				Scale     int                          `json:"scale"`
				Procs     int                          `json:"procs"`
				Threads   int                          `json:"threads"`
				Transport string                       `json:"transport"`
				Direction string                       `json:"direction"`
				Engine    string                       `json:"engine"`
				Compress  bool                         `json:"compress"`
				HostCPUs  int                          `json:"host_cpus"`
				Results   map[string]any               `json:"results"`
				Profile   experiments.SolveProfile     `json:"profile"`
				Recovery  *experiments.RecoveryProfile `json:"recovery,omitempty"`
			}{
				Exp:       *exp,
				Scale:     *scale,
				Procs:     *procs,
				Threads:   t,
				Transport: *transport,
				Direction: dir.String(),
				Engine:    prof.Engine,
				Compress:  experiments.Compress,
				HostCPUs:  runtime.NumCPU(),
				Results:   results,
				Profile:   prof,
				Recovery:  recProfile,
			}
			buf, err := json.MarshalIndent(envelope, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			buf = append(buf, '\n')
			if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(w, "wrote %s\n", *jsonPath)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if !ok {
		os.Exit(2)
	}
}

// writeArtifact creates path and streams write into it.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
