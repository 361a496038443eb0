package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mcmdist"
)

// span is one timed call into a layer. parent indexes the span that caused
// it, or is -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so untraced runs share the code path.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// measure runs fn, records it as a root span and returns its wall time.
func (t *tracer) measure(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(name, -1, start, end)
	return end.Sub(start), err
}

// ledgerSpan names the child span each per-op ledger entry becomes.
var ledgerSpan = map[string]string{
	"init":    "core.init",
	"spmv":    "spmv",
	"select":  "dvec.select",
	"invert":  "dvec.invert",
	"prune":   "dvec.prune",
	"augment": "core.augment",
	"other":   "core.other",
}

// addLedger records the program's per-op wall ledger as children of the
// solve span. The ledger gives durations, not intervals, so the children
// are laid end to end from the solve's start; the solve span's self time is
// then its wall minus the ledger total, core.unattributed_s.
func (t *tracer) addLedger(parent int, wall map[string]time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	ops := make([]string, 0, len(wall))
	for op := range wall {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	at := t.spans[parent].start
	for _, op := range ops {
		name, ok := ledgerSpan[op]
		if !ok {
			name = "core." + op
		}
		t.add(name, parent, at, at.Add(wall[op]))
		at = at.Add(wall[op])
	}
}

// selfRow totals the spans of one name.
type selfRow struct {
	name      string
	count     int
	total     time.Duration
	self      time.Duration
	firstSeen int
}

// selfTimes gives each span name's total and self time, in order of first
// appearance. Self time is a span's duration minus the part of it that
// its children cover.
func (t *tracer) selfTimes() []selfRow {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range t.spans {
		var ivs [][2]time.Time
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Time{t.spans[c].start, t.spans[c].end})
		}
		dur := s.end.Sub(s.start)
		r := rows[s.name]
		if r == nil {
			r = &selfRow{name: s.name, firstSeen: i}
			rows[s.name] = r
		}
		r.count++
		r.total += dur
		r.self += dur - covered(s.start, s.end, ivs)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstSeen < out[j].firstSeen })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// printSelfTimes writes the per-layer self-time table of a traced run,
// with core.unattributed_s and trace.overhead_frac from its metrics.
func printSelfTimes(w io.Writer, rows []selfRow, ms []metric) {
	var unattributed, overhead float64
	for _, m := range ms {
		switch m.name {
		case "core.unattributed_s":
			unattributed = m.value
		case "trace.overhead_frac":
			overhead = m.value
		}
	}
	fmt.Fprintf(w, "%-22s %6s %14s %14s\n", "span", "count", "self_s/span", "total_s/span")
	for _, r := range rows {
		label := r.name
		if label == "core.solve" {
			label = "core.solve (self)"
		}
		n := float64(r.count)
		fmt.Fprintf(w, "%-22s %6d %14.6f %14.6f\n", label, r.count, r.self.Seconds()/n, r.total.Seconds()/n)
	}
	fmt.Fprintf(w, "%-22s %6s %14.6f   median per traced solve; trace.overhead_frac %.4f\n",
		"core.unattributed", "", unattributed, overhead)
}

// meter brackets the timed part of one sample: it collects garbage first,
// so every sample starts from the same heap, then records the solve span,
// its wall time and the allocation deltas of the whole process.
type meter struct {
	tr      *tracer
	t0      time.Time
	ms0     runtime.MemStats
	span    int
	wall    time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
}

func (m *meter) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.t0 = time.Now()
}

func (m *meter) stop() {
	end := time.Now()
	m.wall = end.Sub(m.t0)
	m.span = m.tr.add("core.solve", -1, m.t0, end)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc = ms.TotalAlloc - m.ms0.TotalAlloc
	m.mallocs = ms.Mallocs - m.ms0.Mallocs
	m.gcs = ms.NumGC - m.ms0.NumGC
}

// ledgerTotal sums the per-op wall ledger of one solve.
func ledgerTotal(st *mcmdist.Stats) time.Duration {
	var d time.Duration
	for _, v := range st.WallByOp {
		d += v
	}
	return d
}
