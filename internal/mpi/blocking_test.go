package mpi_test

import (
	"fmt"
	"sort"
	"testing"

	"mcmdist/internal/mpi"
)

// partsProgram drives the progressive collectives the kernels use
// (IAllgathervParts, IAlltoallvParts) plus the pipelined IAllreduce, and
// writes each rank's deliveries into rows in source order, so a run whose
// arrival order differs still yields the same rows. With blocking set it
// also asserts the blocking schedule's contract: every source has arrived
// before the first Next, so Next never has to wait.
func partsProgram(size int, rows [][]int64, blocking bool) func(c *mpi.Comm) error {
	drain := func(c *mpi.Comm, rq *mpi.PartsRequest, out []int64) ([]int64, error) {
		got := make(map[int][]int64)
		for rq.Pending() > 0 {
			if blocking && !rq.Ready() {
				return nil, fmt.Errorf("rank %d: blocking schedule would wait in Next", c.Rank())
			}
			src, payload, _ := rq.Next()
			got[src] = append([]int64(nil), payload...)
		}
		rq.Finish()
		srcs := make([]int, 0, len(got))
		for src := range got {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		for _, src := range srcs {
			out = append(out, int64(src), int64(len(got[src])))
			out = append(out, got[src]...)
		}
		return out, nil
	}
	return func(c *mpi.Comm) error {
		r := int64(c.Rank())
		var out []int64
		var err error
		for round := int64(0); round < 3; round++ {
			data := make([]int64, int(r+round)%3+1) // ragged, never empty
			for i := range data {
				data[i] = r*1000 + round*100 + int64(i)
			}
			if out, err = drain(c, c.IAllgathervParts(data), out); err != nil {
				return err
			}
			parts := make([][]int64, size)
			for d := range parts {
				parts[d] = make([]int64, int(r+int64(d)+round)%3) // some parts empty
				for i := range parts[d] {
					parts[d][i] = r*1000 + int64(d)*10 + int64(i)
				}
			}
			if out, err = drain(c, c.IAlltoallvParts(parts), out); err != nil {
				return err
			}
			out = append(out, c.IAllreduce(mpi.OpSum, r+round).Wait())
		}
		rows[c.WorldRank()] = out
		return nil
	}
}

// TestBlockingScheduleMatchesProgressive pins the overlap ablation at the
// layer that implements it: the blocking schedule (RunConfig.DisableOverlap)
// delivers the same payloads as the progressive one and meters identically,
// rank by rank and kind by kind, on the in-process and tcp loopback
// backends.
func TestBlockingScheduleMatchesProgressive(t *testing.T) {
	for _, backend := range []string{"inproc", "tcp"} {
		for _, size := range conformanceSizes {
			var runs [2]*backendRun
			var rows [2][][]int64
			for i, blocking := range []bool{false, true} {
				rows[i] = make([][]int64, size)
				runs[i] = runBackend(t, backend, size,
					func() mpi.RunConfig { return mpi.RunConfig{DisableOverlap: blocking} },
					partsProgram(size, rows[i], blocking))
				for rank, err := range runs[i].errOf {
					if err != nil {
						t.Fatalf("%s size %d blocking=%v endpoint %d: %v", backend, size, blocking, rank, err)
					}
				}
			}
			pinRanks(t, backend+"/blocking", size, runs[0], runs[1], rows[0], rows[1])
		}
	}
}
