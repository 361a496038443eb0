package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mcmdist"
)

// declared reads the metric names and units BENCHMARK.json declares for
// one mode: end_to_end for untraced runs, per_layer for traced ones.
func declared(t *testing.T, traced bool) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestTinyWorkloads runs every workload at a tiny scale, untraced and
// traced, and checks that each passes its gates and prints exactly the
// metrics BENCHMARK.json declares, with their units.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--scale", "8"}
				if code := mainCode(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := declared(t, trace == "1")
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
					}
				}
			})
		}
	}
}

// TestGateRejectsCorruptMatching corrupts a maximum matching two ways and
// expects the correctness gate to refuse both.
func TestGateRejectsCorruptMatching(t *testing.T) {
	a, err := roadGraph(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mcmdist.FromEdges(a.NRows, a.NCols, edgeList(a))
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := mcmdist.MaximumMatching(g, mcmdist.Options{Procs: 4, Init: mcmdist.GreedyInit})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := mcmdist.MaximumMatchingSerial(g, mcmdist.HopcroftKarp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMatching(g, m, hk.Cardinality()); err != nil {
		t.Fatalf("gate refused a maximum matching: %v", err)
	}
	clone := func() *mcmdist.Matching {
		return &mcmdist.Matching{MateR: append([]int64(nil), m.MateR...), MateC: append([]int64(nil), m.MateC...)}
	}

	// One pair dropped.
	dropped := clone()
	for j, i := range dropped.MateC {
		if i != mcmdist.Unmatched {
			dropped.MateC[j], dropped.MateR[i] = mcmdist.Unmatched, mcmdist.Unmatched
			break
		}
	}
	if err := checkMatching(g, dropped, hk.Cardinality()); err == nil {
		t.Error("gate accepted a matching with one pair dropped")
	}

	// Two pairs crossed so that one is not an edge: same cardinality, one
	// off-graph pair.
	crossed := clone()
	var done bool
	for j1, i1 := range crossed.MateC {
		for j2, i2 := range crossed.MateC {
			if done || i1 == mcmdist.Unmatched || i2 == mcmdist.Unmatched || j1 == j2 || g.HasEdge(int(i1), j2) {
				continue
			}
			crossed.MateC[j1], crossed.MateC[j2] = i2, i1
			crossed.MateR[i1], crossed.MateR[i2] = int64(j2), int64(j1)
			done = true
		}
	}
	if !done {
		t.Fatal("found no pair of matched edges to cross")
	}
	if err := checkMatching(g, crossed, hk.Cardinality()); err == nil {
		t.Error("gate accepted a matching with an off-graph pair")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 29 || pct != 75 {
		t.Errorf("tail of 0..39 = %v at p%v, want 29 at p75", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 4 {
		t.Errorf("tail of 0..4 = %v, want the largest, 4", v)
	}
}
