// Command bench regenerates the tables and figures of the paper's
// evaluation section (Azad & Buluç, IPDPS 2016, Section VI) on the
// simulated distributed-memory runtime.
//
// Usage:
//
//	bench -exp table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|augment|overlap|enginesweep|recovery|all
//	      [-scale N] [-procs P] [-threads T] [-matrix NAME]
//	      [-checkpoint-every K] [-fault none|crash|straggler|rma]
//	      [-fault-rank R] [-fault-at N] [-fault-delay D] [-watchdog D]
//	      [-json out.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Scaling figures report times from the alpha-beta cost model (see
// internal/costmodel) next to measured host wall clock where the figure
// calls for it (fig7); EXPERIMENTS.md compares their shapes against the
// paper's. Larger -scale values sharpen the shapes but take longer.
//
// -json writes a machine-readable envelope: every experiment's row structs
// keyed by name. -exp recovery measures the fault-tolerance plane under
// the -checkpoint-every/-fault/-watchdog settings; -exp overlap splits the
// communication wall into total and exposed under the split-phase and the
// blocking schedule. -cpuprofile and -memprofile write pprof profiles
// covering the experiment runs.
//
// bench only regenerates the paper. One observed solve (trace, time-series,
// live metrics, tcp transport, direction, compression, engine) runs through
// cmd/mcm; timing runs through the mcmbench benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mcmdist/internal/experiments"
	"mcmdist/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table2, fig3..fig9, augment, direction, dirsweep, enginesweep, gridshape, graft, quality, balance, ssms, dynamics, overlap, recovery, all")
	scale := flag.Int("scale", 12, "matrix scale (~2^scale vertices per side)")
	procs := flag.Int("procs", 16, "simulated ranks for single-p experiments (perfect square)")
	threads := flag.Int("threads", 0, "threads per rank for hybrid configurations (0 = paper default of 12)")
	matrix := flag.String("matrix", "road_usa", "matrix for enginesweep, overlap and recovery: a Table II stand-in name or g500/er/ssca (RMAT)")
	jsonPath := flag.String("json", "", "write machine-readable results (every experiment's rows) to this path")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint stride (phases) for the recovery benchmark; 0 means every phase")
	fault := flag.String("fault", "none", "fault injected into the recovery benchmark: none, crash, straggler, rma")
	faultRank := flag.Int("fault-rank", 1, "rank the fault is injected on")
	faultAt := flag.Int("fault-at", 8, "1-based collective (crash) or RMA op (rma) index that triggers the fault")
	faultDelay := flag.Duration("fault-delay", 100*time.Microsecond, "straggler sleep per triggering collective")
	watchdog := flag.Duration("watchdog", 0, "progress-watchdog timeout for the recovery benchmark; 0 leaves it off")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the experiment runs to this path")
	flag.Parse()

	if err := experiments.CheckMatrix(*matrix); err != nil {
		fail(err)
	}
	if s := int(math.Sqrt(float64(*procs))); *procs <= 0 || s*s != *procs {
		fail(fmt.Errorf("-procs %d is not a positive perfect square", *procs))
	}
	if *threads > 0 {
		experiments.DefaultThreads = *threads
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fail(err)
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
		case "overlap":
			rows = experiments.OverlapAblation(w, *matrix, *scale, *procs)
		case "recovery":
			rows = experiments.RecoveryBench(w, *matrix, *scale, *procs, recOpts)
		default:
			return false
		}
		if rows != nil {
			results[name] = rows
		}
		fmt.Fprintln(w)
		return true
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "augment", "direction", "gridshape", "graft", "quality", "balance", "ssms", "treebalance"} {
			fmt.Fprintf(w, "=== %s ===\n", name)
			runOne(name)
		}
	} else if !runOne(*exp) {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *jsonPath != "" {
		envelope := struct {
			Exp      string         `json:"exp"`
			Scale    int            `json:"scale"`
			Procs    int            `json:"procs"`
			Threads  int            `json:"threads"`
			HostCPUs int            `json:"host_cpus"`
			Results  map[string]any `json:"results"`
		}{
			Exp:      *exp,
			Scale:    *scale,
			Procs:    *procs,
			Threads:  experiments.DefaultThreads,
			HostCPUs: runtime.NumCPU(),
			Results:  results,
		}
		buf, err := json.MarshalIndent(envelope, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonPath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}

// fail prints err as the command's one-line diagnostic and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
