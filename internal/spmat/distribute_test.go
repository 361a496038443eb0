package spmat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refToCSC compiles a COO the straightforward way — one sort over all
// triples, then a duplicate-skipping scan — as the reference for
// COO.ToCSC's column bucket pass.
func refToCSC(c *COO) *CSC {
	ent := slices.Clone(c.Entries)
	sort.Slice(ent, func(a, b int) bool {
		if ent[a].Col != ent[b].Col {
			return ent[a].Col < ent[b].Col
		}
		return ent[a].Row < ent[b].Row
	})
	m := &CSC{NRows: c.NRows, NCols: c.NCols, ColPtr: make([]int, c.NCols+1)}
	for k, e := range ent {
		if k > 0 && e == ent[k-1] {
			continue
		}
		m.RowIdx = append(m.RowIdx, e.Row)
		m.ColPtr[e.Col+1]++
	}
	for j := 0; j < c.NCols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m
}

// refDistribute2D builds the blocks through a per-block COO of local
// coordinates, compiled with refToCSC and converted with ToDCSC.
func refDistribute2D(a *CSC, pr, pc int) [][]*LocalMatrix {
	rowBlocks, colBlocks := SplitRange(a.NRows, pr), SplitRange(a.NCols, pc)
	out := make([][]*LocalMatrix, pr)
	for pi, rb := range rowBlocks {
		out[pi] = make([]*LocalMatrix, pc)
		for pj, cb := range colBlocks {
			coo := NewCOO(rb.Len(), cb.Len())
			for j := cb.Lo; j < cb.Hi; j++ {
				for _, i := range a.Col(j) {
					if rb.Contains(i) {
						coo.Add(i-rb.Lo, j-cb.Lo)
					}
				}
			}
			out[pi][pj] = &LocalMatrix{Rows: rb, Cols: cb, M: refToCSC(coo).ToDCSC()}
		}
	}
	return out
}

// checkFindCol asserts FindCol(j) equals a linear scan of JC for every
// local column, empty and trailing ones included.
func checkFindCol(t *testing.T, d *DCSC) {
	t.Helper()
	for j := 0; j < d.NCols; j++ {
		var want []int
		for k, c := range d.JC {
			if c == j {
				want = d.IR[d.CP[k]:d.CP[k+1]]
			}
		}
		got := d.FindCol(j)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("FindCol(%d) = %v, want %v", j, got, want)
		}
	}
}

// checkDistribute2D compiles c, distributes it on a pr x pc grid, and
// asserts every block equals the reference field for field, with its
// arrays allocated at exactly their final length.
func checkDistribute2D(t *testing.T, c *COO, pr, pc int) {
	t.Helper()
	a := c.ToCSC()
	ref := refToCSC(c)
	if !slices.Equal(a.ColPtr, ref.ColPtr) || !slices.Equal(a.RowIdx, ref.RowIdx) {
		t.Fatalf("%dx%d: ToCSC = %v %v, want %v %v", c.NRows, c.NCols, a.ColPtr, a.RowIdx, ref.ColPtr, ref.RowIdx)
	}
	got, want := Distribute2D(a, pr, pc), refDistribute2D(a, pr, pc)
	for pi := range want {
		for pj := range want[pi] {
			g, w := got[pi][pj], want[pi][pj]
			if g.Rows != w.Rows || g.Cols != w.Cols ||
				g.M.NRows != w.M.NRows || g.M.NCols != w.M.NCols ||
				!slices.Equal(g.M.JC, w.M.JC) || !slices.Equal(g.M.CP, w.M.CP) || !slices.Equal(g.M.IR, w.M.IR) {
				t.Fatalf("%dx%d on %dx%d grid, block (%d,%d):\n got  %v %v JC %v CP %v IR %v\n want %v %v JC %v CP %v IR %v",
					c.NRows, c.NCols, pr, pc, pi, pj,
					g.Rows, g.Cols, g.M.JC, g.M.CP, g.M.IR, w.Rows, w.Cols, w.M.JC, w.M.CP, w.M.IR)
			}
			if cap(g.M.JC) != len(g.M.JC) || cap(g.M.CP) != len(g.M.CP) || cap(g.M.IR) != len(g.M.IR) {
				t.Fatalf("%dx%d on %dx%d grid, block (%d,%d): arrays not exactly sized: cap JC %d/%d CP %d/%d IR %d/%d",
					c.NRows, c.NCols, pr, pc, pi, pj,
					cap(g.M.JC), len(g.M.JC), cap(g.M.CP), len(g.M.CP), cap(g.M.IR), len(g.M.IR))
			}
			checkFindCol(t, g.M)
			checkFindCol(t, w.M)
		}
	}
}

func TestDistribute2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 3}}
	shapes := [][2]int{{0, 0}, {1, 1}, {2, 1}, {1, 5}, {2, 2}, {7, 3}, {3, 11}, {16, 16}, {29, 41}, {64, 9}}
	for _, g := range grids {
		for _, sh := range shapes {
			for trial := 0; trial < 4; trial++ {
				c := NewCOO(sh[0], sh[1])
				if sh[0] > 0 && sh[1] > 0 {
					// From empty to about half full; every entry is added
					// once or twice so the source carries duplicates.
					for k := rng.Intn(sh[0]*sh[1]/2 + 2); k > 0; k-- {
						i, j := rng.Intn(sh[0]), rng.Intn(sh[1])
						c.Add(i, j)
						if rng.Intn(3) == 0 {
							c.Add(i, j)
						}
					}
				}
				checkDistribute2D(t, c, g[0], g[1])
			}
		}
	}
}

// FuzzDistribute2D decodes bytes into a small COO and a grid shape: byte 0
// and 1 are the row and column counts (mod 16), byte 2 and 3 the grid
// rows and columns (1..4), and each later byte pair one entry (taken mod
// the shape). Every block must match the reference, and FindCol must
// match a linear scan.
func FuzzDistribute2D(f *testing.F) {
	// The paper's 5x5 worked example on a 2x2 grid.
	f.Add([]byte{5, 5, 2, 2, 0, 0, 1, 0, 1, 1, 2, 1, 1, 2, 2, 2, 3, 2, 3, 3, 4, 3, 4, 4})
	f.Add([]byte{0, 0, 1, 1})                   // empty
	f.Add([]byte{1, 6, 1, 3, 0, 0, 0, 2, 0, 5}) // single row
	f.Add([]byte{4, 4, 3, 3, 2, 1, 2, 1, 2, 1}) // all duplicates
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nr, nc := int(data[0]%16), int(data[1]%16)
		pr, pc := int(data[2]%4)+1, int(data[3]%4)+1
		c := NewCOO(nr, nc)
		if nr > 0 && nc > 0 {
			for k := 4; k+1 < len(data); k += 2 {
				c.Add(int(data[k])%nr, int(data[k+1])%nc)
			}
		}
		checkDistribute2D(t, c, pr, pc)
	})
}
