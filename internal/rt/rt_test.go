package rt

import (
	"math/rand"
	"sort"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

func TestClassForCapacities(t *testing.T) {
	cases := []struct{ n, cls int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2}, {4096, 6},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.cls {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.cls)
		}
		if c.n > 0 && minClassCap<<classFor(c.n) < c.n {
			t.Errorf("classFor(%d) capacity %d < n", c.n, minClassCap<<classFor(c.n))
		}
	}
}

func TestPutClassInvariant(t *testing.T) {
	// Whatever class a buffer is pooled under, its capacity must satisfy
	// that class, so Get's cap >= n promise holds.
	for _, bufCap := range []int{0, 1, 63, 64, 65, 127, 128, 200, 4095, 4096} {
		cls, ok := putClass(bufCap)
		if bufCap < minClassCap {
			if ok {
				t.Errorf("putClass(%d) pooled a sub-minimum buffer", bufCap)
			}
			continue
		}
		if !ok {
			t.Errorf("putClass(%d) refused a poolable buffer", bufCap)
		}
		if minClassCap<<cls > bufCap {
			t.Errorf("putClass(%d) = class %d needing cap %d", bufCap, cls, minClassCap<<cls)
		}
	}
}

func TestGetPutReusesBacking(t *testing.T) {
	c := New(nil)
	b := c.GetInts(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("GetInts(100): len %d cap %d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	first := &b[0]
	c.PutInts(b)
	b2 := c.GetInts(50) // same class (64..128 holds neither; 100→class 1, 50→class 0)
	_ = b2
	b3 := c.GetInts(100)
	if len(b3) != 0 || cap(b3) < 100 {
		t.Fatalf("reborrow: len %d cap %d", len(b3), cap(b3))
	}
	b3 = append(b3, 9)
	if &b3[0] != first {
		t.Error("GetInts did not reuse the pooled backing array")
	}
}

func TestPutDropsTinyBuffers(t *testing.T) {
	c := New(nil)
	c.PutInts(make([]int64, 0, 10))
	b := c.GetInts(5)
	if cap(b) < minClassCap {
		t.Errorf("Get after tiny Put returned cap %d < class capacity %d", cap(b), minClassCap)
	}
	c.PutBools(make([]bool, 10))
	bl := c.GetBools(20)
	if len(bl) != 20 || cap(bl) < minClassCap {
		t.Errorf("GetBools after tiny Put: len %d cap %d", len(bl), cap(bl))
	}
}

func TestOutstandingGetsNeverAlias(t *testing.T) {
	c := New(nil)
	var bufs [][]int64
	for i := 0; i < 8; i++ {
		b := c.GetInts(64)
		b = append(b, int64(i))
		bufs = append(bufs, b)
	}
	for i := range bufs {
		for j := i + 1; j < len(bufs); j++ {
			if &bufs[i][0] == &bufs[j][0] {
				t.Fatalf("outstanding borrows %d and %d share backing", i, j)
			}
		}
	}
	for i, b := range bufs {
		if b[0] != int64(i) {
			t.Fatalf("borrow %d clobbered: %d", i, b[0])
		}
	}
}

func TestMaxPerClassBound(t *testing.T) {
	c := New(nil)
	for i := 0; i < 3*maxPerClass; i++ {
		c.PutInts(make([]int64, 0, minClassCap))
	}
	if got := len(c.ints[0]); got != maxPerClass {
		t.Errorf("class 0 holds %d free buffers, want max %d", got, maxPerClass)
	}
}

func TestGetVertsRoundTrip(t *testing.T) {
	c := New(nil)
	v := c.GetVerts(10)
	v = append(v, semiring.Vertex{Parent: 1, Root: 2})
	p0 := &v[0]
	c.PutVerts(v)
	v2 := c.GetVerts(10)
	v2 = append(v2, semiring.Vertex{Parent: 3, Root: 4})
	if &v2[0] != p0 {
		t.Error("PutVerts/GetVerts did not round-trip the backing array")
	}
}

func TestGetPartsRoundTrip(t *testing.T) {
	c := New(nil)
	ps := c.GetParts(4)
	if len(ps) != 4 {
		t.Fatalf("GetParts(4) len %d", len(ps))
	}
	for d := range ps {
		for k := 0; k < 100; k++ {
			ps[d] = append(ps[d], int64(d*100+k))
		}
	}
	backing := make([]*int64, 4)
	for d := range ps {
		backing[d] = &ps[d][0]
	}
	c.PutParts(ps)
	ps2 := c.GetParts(4)
	for d := range ps2 {
		if len(ps2[d]) != 0 {
			t.Fatalf("reborrowed part %d not reset: len %d", d, len(ps2[d]))
		}
		ps2[d] = append(ps2[d], 1)
		if &ps2[d][0] != backing[d] {
			t.Errorf("part %d backing not reused", d)
		}
	}
	// Growing the set keeps the old backings where possible.
	c.PutParts(ps2)
	ps3 := c.GetParts(6)
	if len(ps3) != 6 {
		t.Fatalf("GetParts(6) len %d", len(ps3))
	}
	ps3[0] = append(ps3[0], 1)
	if &ps3[0][0] != backing[0] {
		t.Error("grown parts set dropped existing backing 0")
	}
}

func TestScratchEpochSemantics(t *testing.T) {
	c := New(nil)
	s := c.Scratch("x", 10)
	if s.Len() < 10 {
		t.Fatalf("scratch len %d", s.Len())
	}
	for i := 0; i < 10; i++ {
		if s.Has(i) {
			t.Fatalf("fresh scratch has %d", i)
		}
	}
	s.Set(3, semiring.Vertex{Parent: 7, Root: 8})
	s.Mark(5)
	if !s.Has(3) || !s.Has(5) || s.Has(4) {
		t.Fatal("Set/Mark/Has broken")
	}
	if s.Val[3] != (semiring.Vertex{Parent: 7, Root: 8}) {
		t.Fatalf("value: %v", s.Val[3])
	}
	// Re-borrowing invalidates without zeroing.
	s2 := c.Scratch("x", 10)
	if s2 != s {
		t.Fatal("same tag, same size should return the same scratch")
	}
	if s2.Has(3) || s2.Has(5) {
		t.Fatal("re-borrow did not invalidate previous epoch")
	}
	// Distinct tags are independent even at the same size.
	a, b := c.Scratch("a", 8), c.Scratch("b", 8)
	if a == b {
		t.Fatal("distinct tags share a scratch")
	}
	a.Mark(1)
	if b.Has(1) {
		t.Fatal("tag b sees tag a's mark")
	}
}

func TestScratchGrowAndEpochWrap(t *testing.T) {
	c := New(nil)
	s := c.Scratch("g", 4)
	s.Mark(0)
	s = c.Scratch("g", 100) // regrow
	if s.Len() < 100 {
		t.Fatalf("regrown len %d", s.Len())
	}
	if s.Has(0) {
		t.Fatal("regrown scratch kept old marks")
	}
	// Force the uint32 epoch to wrap: stale stamps must not read as present.
	s.Mark(2)
	s.epoch = ^uint32(0) // next borrow increments to 0 and must clear
	s2 := c.Scratch("g", 100)
	if s2.epoch == 0 {
		t.Fatal("epoch left at zero after wrap")
	}
	for i := 0; i < 100; i++ {
		if s2.Has(i) {
			t.Fatalf("index %d present after epoch wrap", i)
		}
	}
}

func TestDisabledAndNilArePassThrough(t *testing.T) {
	for _, c := range []*Ctx{nil, NewDisabled(nil)} {
		if c.Enabled() {
			t.Fatal("Enabled on nil/disabled ctx")
		}
		b := c.GetInts(10)
		if len(b) != 0 || cap(b) < 10 {
			t.Fatalf("disabled GetInts: len %d cap %d", len(b), cap(b))
		}
		b = append(b, 1)
		c.PutInts(b)
		b2 := c.GetInts(10)
		b2 = append(b2, 2)
		if &b2[0] == &b[0] {
			t.Fatal("disabled ctx pooled a buffer")
		}
		bl := c.GetBools(7)
		if len(bl) != 7 {
			t.Fatalf("disabled GetBools len %d", len(bl))
		}
		for i, v := range bl {
			if v {
				t.Fatalf("disabled GetBools not zeroed at %d", i)
			}
		}
		c.PutBools(bl)
		ps := c.GetParts(3)
		if len(ps) != 3 {
			t.Fatalf("disabled GetParts len %d", len(ps))
		}
		c.PutParts(ps)
		cost := c.Track("op", func() {})
		if cost.Meter != (mpi.Meter{}) {
			t.Fatalf("nil-comm Track metered %+v", cost.Meter)
		}
	}
	// Disabled scratch is fresh each borrow.
	d := NewDisabled(nil)
	s1 := d.Scratch("t", 5)
	s1.Mark(1)
	s2 := d.Scratch("t", 5)
	if s2.Has(1) {
		t.Fatal("disabled scratch persisted state")
	}
}

func TestSortRecordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, stride := range []int{1, 2, 3, 4} {
		n := 200
		buf := make([]int64, n*stride)
		for i := range buf {
			buf[i] = int64(rng.Intn(20))
		}
		type rec []int64
		want := make([]rec, n)
		for i := 0; i < n; i++ {
			want[i] = append(rec(nil), buf[i*stride:(i+1)*stride]...)
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i][0] != want[j][0] {
				return want[i][0] < want[j][0]
			}
			return stride > 1 && want[i][1] < want[j][1]
		})
		SortRecords(buf, stride)
		for i := 0; i < n; i++ {
			got := buf[i*stride : (i+1)*stride]
			if got[0] != want[i][0] {
				t.Fatalf("stride %d rec %d key: %d, want %d", stride, i, got[0], want[i][0])
			}
			if stride > 1 && got[1] != want[i][1] {
				t.Fatalf("stride %d rec %d tie: %d, want %d", stride, i, got[1], want[i][1])
			}
		}
	}
}

func TestSortRecordsPanicsOnRaggedBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ragged buffer")
		}
	}()
	SortRecords(make([]int64, 7), 3)
}

// TestCrossRankNoAliasing: each rank's context pools its own storage; a
// buffer borrowed on rank r, filled with r's pattern, must still hold that
// pattern after every rank has borrowed, written, returned, and re-borrowed
// concurrently. Run under -race this is also the data-race guard for the
// arena.
func TestCrossRankNoAliasing(t *testing.T) {
	const p = 8
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		ctx := New(c)
		for round := 0; round < 50; round++ {
			b := ctx.GetInts(1 << uint(round%10))
			v := ctx.GetVerts(256)
			for k := 0; k < 128; k++ {
				b = append(b, int64(c.Rank()*1_000_000+round*1000+k))
				v = append(v, semiring.Self(int64(c.Rank())))
			}
			c.Barrier() // maximal interleaving across ranks
			for k := 0; k < 128; k++ {
				if b[k] != int64(c.Rank()*1_000_000+round*1000+k) {
					t.Errorf("rank %d round %d: int buffer clobbered at %d", c.Rank(), round, k)
				}
				if v[k] != semiring.Self(int64(c.Rank())) {
					t.Errorf("rank %d round %d: vert buffer clobbered at %d", c.Rank(), round, k)
				}
			}
			ctx.PutInts(b)
			ctx.PutVerts(v)
			s := ctx.Scratch("cross", 64)
			s.Set(c.Rank()%64, semiring.Self(int64(c.Rank())))
			c.Barrier()
			if !s.Has(c.Rank()%64) || s.Val[c.Rank()%64] != semiring.Self(int64(c.Rank())) {
				t.Errorf("rank %d round %d: scratch clobbered", c.Rank(), round)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrackAccumulatesMeterDelta(t *testing.T) {
	_, err := mpi.Run(2, func(c *mpi.Comm) error {
		ctx := New(c)
		d1 := ctx.Track("gather", func() {
			c.Allgatherv([]int64{1, 2, 3})
		})
		if d1.Meter.Msgs != 1 {
			t.Errorf("rank %d: tracked msgs %d, want 1", c.Rank(), d1.Meter.Msgs)
		}
		d2 := ctx.Track("gather", func() {
			c.Allgatherv([]int64{4})
		})
		if got := d1.Meter.Add(d2.Meter).Msgs; got != 2 {
			t.Errorf("rank %d: summed msgs %d, want 2", c.Rank(), got)
		}
		if d1.Wall+d2.Wall <= 0 {
			t.Errorf("rank %d: no wall time measured", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBindAcrossWorlds: a context reused across two mpi.Run worlds keeps its
// pooled storage but meters against the newly bound comm.
func TestBindAcrossWorlds(t *testing.T) {
	ctx := New(nil)
	var firstBacking *int64
	for world := 0; world < 2; world++ {
		_, err := mpi.Run(1, func(c *mpi.Comm) error {
			ctx.Bind(c)
			b := ctx.GetInts(100)
			b = append(b, 1)
			if world == 0 {
				firstBacking = &b[0]
			} else if &b[0] != firstBacking {
				t.Error("pooled storage not carried across worlds")
			}
			ctx.PutInts(b)
			ctx.Track("solve", func() { c.Allreduce(mpi.OpSum, 1) })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestScratchShardsInvalidateOnReborrow(t *testing.T) {
	c := New(nil)
	ss := c.ScratchShards("shard.test", 3, 100)
	if len(ss) != 3 {
		t.Fatalf("got %d shards", len(ss))
	}
	for w, s := range ss {
		if s.Len() < 100 {
			t.Fatalf("shard %d len %d", w, s.Len())
		}
		if s.Has(w) {
			t.Fatalf("shard %d has entry %d before Set", w, w)
		}
		s.Set(w, semiring.Vertex{Parent: int64(w)})
	}
	// Distinct shards must not alias.
	for w, s := range ss {
		for i := 0; i < 3; i++ {
			if s.Has(i) != (i == w) {
				t.Fatalf("shard %d aliasing at %d", w, i)
			}
		}
	}
	// Re-borrow invalidates all entries and may grow the set.
	ss2 := c.ScratchShards("shard.test", 4, 100)
	for w, s := range ss2 {
		if s.Has(w % 3) {
			t.Fatalf("shard %d kept stale entry after re-borrow", w)
		}
	}
	if ss2[0] != ss[0] {
		t.Fatal("re-borrow did not reuse shard storage")
	}
}

func TestScratchShardsDisabledCtx(t *testing.T) {
	c := NewDisabled(nil)
	ss := c.ScratchShards("x", 2, 50)
	if len(ss) != 2 || ss[0] == ss[1] {
		t.Fatal("disabled ctx must hand out distinct fresh shards")
	}
	ss[0].Set(7, semiring.Vertex{})
	if !ss[0].Has(7) || ss[1].Has(7) {
		t.Fatal("disabled shards broken")
	}
}

func TestCtxSortRecordsMatchesSerial(t *testing.T) {
	c := New(nil)
	c.EnsureThreads(4)
	defer c.Close()
	rng := rand.New(rand.NewSource(42))
	for _, stride := range []int{1, 2, 3} {
		for _, nrec := range []int{0, 1, 100, sortGrain - 1, sortGrain * 2, sortGrain*4 + 17} {
			buf := make([]int64, nrec*stride)
			for i := 0; i < nrec; i++ {
				buf[i*stride] = int64(rng.Intn(nrec/4 + 1)) // plenty of key ties
				for f := 1; f < stride; f++ {
					buf[i*stride+f] = int64(i) // unique second field, like source indices
				}
			}
			want := append([]int64(nil), buf...)
			SortRecords(want, stride)
			c.SortRecords(buf, stride)
			for i := range buf {
				if buf[i] != want[i] {
					t.Fatalf("stride=%d nrec=%d: parallel sort diverges at %d: %d vs %d",
						stride, nrec, i, buf[i], want[i])
				}
			}
		}
	}
}

func TestEnsureThreadsLifecycle(t *testing.T) {
	c := New(nil)
	if c.Threads() != 1 || c.Pool() != nil {
		t.Fatal("fresh ctx must have inline pool")
	}
	c.EnsureThreads(4)
	p := c.Pool()
	if p.Threads() != 4 {
		t.Fatalf("threads %d", p.Threads())
	}
	c.EnsureThreads(4)
	if c.Pool() != p {
		t.Fatal("same-size EnsureThreads must keep the pool")
	}
	c.EnsureThreads(2)
	if c.Pool() == p || c.Threads() != 2 {
		t.Fatal("resize must replace the pool")
	}
	c.Close()
	if c.Pool() != nil || c.Threads() != 1 {
		t.Fatal("Close must drop to the inline pool")
	}
	c.Close() // idempotent
	var nilCtx *Ctx
	nilCtx.EnsureThreads(8)
	nilCtx.Close()
	if nilCtx.Threads() != 1 {
		t.Fatal("nil ctx must report 1 thread")
	}
}
