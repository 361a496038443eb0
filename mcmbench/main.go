// Command mcmbench is the repository benchmark: it times MCM-DIST through
// the public mcmdist API on one named workload, checks every matching it
// returns, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 51, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones of a traced run. See README.md for the workloads,
// the metrics and how to run it; run.sh builds and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// config holds one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int // 0 takes the workload's own scale
}

const (
	graphsPerRun = 16 // graphs per run, generated from the seed
	setupReps    = 3  // counted set-ups of every graph; setup_s is their median
	yardReps     = 3  // serial solves and certificate checks per graph in a traced run
	minSamples   = 16 // timed solves per run even past the deadline
)

func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("mcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload: g500-p1, road-p4 or road-tcp")
	fs.Int64Var(&c.seed, "seed", 1, "graph generator seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.IntVar(&c.scale, "scale", 0, "graph scale (2^scale vertices per side); 0 keeps the workload's")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	c.trace = *trace == 1
	return c, nil
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mcmbench:", err)
		return 2
	}
	w, err := workloadByName(c.workload)
	if err != nil {
		fmt.Fprintln(stderr, "mcmbench:", err)
		return 2
	}
	rep, err := run(w, c)
	if err != nil {
		fmt.Fprintln(stderr, "mcmbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "mcmbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// provenance states what a result measured and on what host.
type provenance struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256,omitempty"`
	Graphs       []shape `json:"graphs"`
	Samples      int     `json:"timed_samples"`
	TailPercent  float64 `json:"solve_tail_percentile"`
}

// shape describes one generated graph of a run.
type shape struct {
	Seed          int64 `json:"seed"`
	Rows          int   `json:"rows"`
	Cols          int   `json:"cols"`
	Edges         int   `json:"edges"`
	HKCardinality int   `json:"hk_cardinality"`
	// Phases and Iterations are the engine's counts on this graph, and
	// SolveS its median untraced solve time.
	Phases     int     `json:"phases"`
	Iterations int     `json:"iterations"`
	SolveS     float64 `json:"solve_s"`
}

// report is one run's result.
type report struct {
	prov              provenance
	attempted, failed int
	failures          []string
	metrics           []metric
	selfRows          []selfRow
}

func (r *report) fail(format string, a ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// write prints the provenance, the self-time table of a traced run, each
// metric on its own line, and last the JSON result.
func (r *report) write(w io.Writer) error {
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if r.prov.Trace {
		printSelfTimes(w, r.selfRows, r.metrics)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-26s %.9g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(w, "metric %-26s %.9g ratio (failed / attempted)\n", "fail_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// sourceIdentity names the code measured: the VCS revision stamped into
// the build when it was built inside a git checkout ("unknown" otherwise),
// and a SHA-256 over the Go sources and go.mod files under the working
// directory, which identifies the code in a plain checkout too.
func sourceIdentity() (commit, digest string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return commit, ""
	}
	return commit, hex.EncodeToString(h.Sum(nil))
}
