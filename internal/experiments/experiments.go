// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section VI) on the simulated distributed-memory
// runtime. Absolute times come from the alpha-beta cost model with
// Edison-like constants (the communication meters are exact; see
// internal/costmodel); the experiments are judged on shape — who wins, by
// what factor, where scaling flattens — as recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mcmdist/internal/core"
	"mcmdist/internal/costmodel"
	"mcmdist/internal/gen"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// Model is the machine model all experiments project onto: Edison rescaled
// to the miniature input sizes (see costmodel.EdisonMini for the rationale).
var Model = costmodel.EdisonMini

// DefaultThreads mirrors the paper's 12 OpenMP threads per MPI process.
// It is a variable so cmd/bench -threads can resize every experiment's
// hybrid configuration at once.
var DefaultThreads = 12

// DisableOverlap, when set (cmd/bench -no-overlap), runs every experiment
// on the blocking schedule (Config.DisableOverlap). Results and
// communication meters are bit-identical either way; only wall clocks and
// the exposed-communication ledger change.
var DisableOverlap = false

// TransportBackend selects the transport the measured solve profile runs
// on (cmd/bench -transport): "inproc" (the default simulation) or any
// other registered backend, e.g. "tcp" for a loopback-socket world hosted
// by this process. The scripted experiments always run in-process; results
// are bit-identical across backends (the conformance suite pins this), so
// the knob exists to measure the real communication stack, not to change
// answers.
var TransportBackend = "inproc"

// DefaultDirection pins the measured profile solve's SpMV kernel choice
// (cmd/bench -direction): DirectionPush (the zero value), DirectionPull or
// DirectionAuto.
var DefaultDirection core.Direction

// Compress runs the measured profile solve with the delta-varint wire
// codec (cmd/bench -compress): serializing backends encode payloads on the
// wire and every backend meters the encoded volume as Meter.WordsEnc.
// Results are bit-identical with it on or off.
var Compress = false

// Engine pins the measured profile solve's matching engine (cmd/bench
// -engine): a registry name, "auto" for the cost model's per-instance
// choice, or "" for the default (bfs). See docs/ENGINES.md.
var Engine string

// Run solves the matrix on p ranks with the given options and returns the
// result; it panics on configuration errors (experiment code paths use
// known-good configurations).
func run(a *spmat.CSC, cfg core.Config) *core.Result {
	cfg.DisableOverlap = DisableOverlap
	res, err := core.Solve(a, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// modeledTime evaluates the run on the Edison model: critical path over
// ranks of F/t + alpha*S + beta*W.
func modeledTime(res *core.Result, threads int) float64 {
	return Model.CriticalTime(res.PerRank, threads)
}

// newTab returns a tabwriter for aligned experiment tables.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// suiteMatrix generates one Table II stand-in at the given scale, or an
// RMAT matrix for the synthetic class names "g500", "er" and "ssca".
func suiteMatrix(name string, scale int) *spmat.CSC {
	switch name {
	case "g500":
		return rmat.MustGenerate(rmat.G500, scale, 8, 17)
	case "er":
		return rmat.MustGenerate(rmat.ER, scale, 8, 17)
	case "ssca":
		return rmat.MustGenerate(rmat.SSCA, scale, 8, 17)
	}
	sp, err := gen.FindSpec(name)
	if err != nil {
		panic(err)
	}
	return gen.MustGenerate(sp, scale)
}

// MatrixInfo is one row of the Table II inventory.
type MatrixInfo struct {
	Name          string
	Class         string
	Rows, Cols    int
	NNZ           int
	MaximalCard   int // dynamic-mindegree maximal matching
	MCMCard       int // maximum matching (oracle)
	UnmatchedCols int // columns left unmatched by the maximal matching
}

// Table2 regenerates the Table II inventory: for every stand-in, size,
// sparsity, and the number of columns a maximal matching leaves unmatched
// (the paper's selection criterion was "several thousands of unmatched
// vertices after computing a maximal matching").
func Table2(w io.Writer, scale int) []MatrixInfo {
	var rows []MatrixInfo
	for _, sp := range gen.Suite() {
		a := gen.MustGenerate(sp, scale)
		maximal := matching.DynMinDegree(a)
		mcm := matching.HopcroftKarp(a, maximal)
		rows = append(rows, MatrixInfo{
			Name:          sp.Name,
			Class:         sp.Class.String(),
			Rows:          a.NRows,
			Cols:          a.NCols,
			NNZ:           a.NNZ(),
			MaximalCard:   maximal.Cardinality(),
			MCMCard:       mcm.Cardinality(),
			UnmatchedCols: a.NCols - maximal.Cardinality(),
		})
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Table II (stand-ins)\tclass\trows\tcols\tnnz\t|maximal|\t|MCM|\tunmatched-after-maximal")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.Class, r.Rows, r.Cols, r.NNZ, r.MaximalCard, r.MCMCard, r.UnmatchedCols)
	}
	tw.Flush()
	return rows
}

// Fig3Row is one bar group of Fig. 3: total MCM time split into the
// initializer and the MCM phase, for one (matrix, initializer) pair.
type Fig3Row struct {
	Matrix    string
	Init      core.Init
	InitTime  float64 // modeled seconds spent in the initializer
	MCMTime   float64 // modeled seconds spent in MCM phases
	InitCard  int
	FinalCard int
}

// Fig3Matrices are the four representative graphs of the figure.
var Fig3Matrices = []string{"amazon-2008", "wikipedia-20070206", "cage15", "road_usa"}

// Fig3 regenerates Fig. 3: the impact of the initializer (greedy,
// Karp–Sipser, dynamic mindegree) on total MCM time, on p ranks.
func Fig3(w io.Writer, scale, procs int) []Fig3Row {
	var rows []Fig3Row
	for _, name := range Fig3Matrices {
		a := suiteMatrix(name, scale)
		for _, init := range []core.Init{core.InitGreedy, core.InitKarpSipser, core.InitDynMinDegree} {
			res := run(a, core.Config{Procs: procs, Init: init, Permute: true, Seed: 5})
			bd := Model.Breakdown(meterByOp(res), DefaultThreads)
			rows = append(rows, Fig3Row{
				Matrix:    name,
				Init:      init,
				InitTime:  bd[string(core.OpInit)],
				MCMTime:   sumExcept(bd, string(core.OpInit)),
				InitCard:  res.Stats.InitCardinality,
				FinalCard: res.Stats.Cardinality,
			})
		}
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Fig 3 (p=%d, t=%d)\tinit\tinit-time(s)\tmcm-time(s)\ttotal(s)\t|init|\t|MCM|\n", procs, DefaultThreads)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t%d\n",
			r.Matrix, r.Init, r.InitTime, r.MCMTime, r.InitTime+r.MCMTime, r.InitCard, r.FinalCard)
	}
	tw.Flush()
	return rows
}

// meterByOp flattens the per-category meter map for the cost model.
func meterByOp(res *core.Result) map[string]mpi.Meter {
	out := make(map[string]mpi.Meter, len(res.Stats.Meter))
	for op, m := range res.Stats.Meter {
		out[string(op)] = m
	}
	return out
}

func sumExcept(bd map[string]float64, skip string) float64 {
	var t float64
	for k, v := range bd {
		if k != skip {
			t += v
		}
	}
	return t
}
