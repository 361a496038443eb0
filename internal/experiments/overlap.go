package experiments

import (
	"fmt"
	"io"
	"time"

	"mcmdist/internal/core"
)

// OverlapRow is one communication schedule of the overlap ablation. Words
// is the collective volume summed over ranks; CommTotalSeconds is the
// request-in-flight communication wall summed over ranks and
// CommExposedSeconds the part the ranks spent blocked in Wait, so
// HiddenFraction (1 - exposed/total) is the latency the schedule hid
// behind local computation. WallSeconds is the solve's host wall clock.
type OverlapRow struct {
	Schedule           string  `json:"schedule"`
	Cardinality        int     `json:"cardinality"`
	Iterations         int     `json:"iterations"`
	Words              int64   `json:"words"`
	CommTotalSeconds   float64 `json:"comm_total_seconds"`
	CommExposedSeconds float64 `json:"comm_exposed_seconds"`
	HiddenFraction     float64 `json:"hidden_fraction"`
	WallSeconds        float64 `json:"wall_seconds"`
}

// OverlapAblation solves the named matrix twice, on the split-phase
// schedule (communication in flight while the kernels compute) and on the
// blocking schedule (Config.DisableOverlap: every collective completes
// before its kernel resumes). The matching and the meters are identical;
// the rows differ in how much communication wall the ranks spent exposed.
// See DESIGN.md §8 and the split-phase section of EXPERIMENTS.md.
func OverlapAblation(w io.Writer, name string, scale, procs int) []OverlapRow {
	a := suiteMatrix(name, scale)
	var rows []OverlapRow
	for _, blocking := range []bool{false, true} {
		start := time.Now()
		res := run(a, core.Config{Procs: procs, Threads: DefaultThreads, Init: core.InitDynMinDegree,
			Permute: true, Seed: 9, DisableOverlap: blocking})
		row := OverlapRow{
			Schedule:    "split-phase",
			Cardinality: res.Stats.Cardinality,
			Iterations:  res.Stats.Iterations,
			WallSeconds: time.Since(start).Seconds(),
		}
		if blocking {
			row.Schedule = "blocking"
		}
		for _, m := range res.PerRank {
			row.Words += m.Words
		}
		var total, exposed time.Duration
		for _, ct := range res.PerRankComm {
			total += ct.Total
			exposed += ct.Exposed
		}
		row.CommTotalSeconds = total.Seconds()
		row.CommExposedSeconds = exposed.Seconds()
		if total > 0 {
			row.HiddenFraction = 1 - exposed.Seconds()/total.Seconds()
		}
		rows = append(rows, row)
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Overlap (%s scale=%d, p=%d, t=%d)\t|M|\titers\twords\tcomm total(s)\tcomm exposed(s)\thidden\thost wall(s)\n",
		name, scale, procs, DefaultThreads)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%.3f\t%.1f%%\t%.3f\n", r.Schedule, r.Cardinality, r.Iterations,
			r.Words, r.CommTotalSeconds, r.CommExposedSeconds, 100*r.HiddenFraction, r.WallSeconds)
	}
	tw.Flush()
	return rows
}
