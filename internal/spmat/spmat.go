// Package spmat provides the sparse-matrix substrate used by the matching
// algorithms: coordinate (COO) construction, compressed sparse columns (CSC),
// doubly compressed sparse columns (DCSC, the CombBLAS local format), row and
// column permutations, transposition, and 2D block distribution onto a
// process grid.
//
// All matrices in this package are binary (pattern) matrices: a nonzero at
// (i, j) records an edge between row vertex i and column vertex j of a
// bipartite graph G = (R, C, E), following the representation of Azad &
// Buluç (IPDPS 2016), Section II.
package spmat

import (
	"fmt"
	"slices"
	"sort"
)

// Triple is one nonzero coordinate of a pattern matrix.
type Triple struct {
	Row, Col int
}

// COO is an unordered coordinate-format pattern matrix, used as a staging
// area while generating or reading matrices.
type COO struct {
	NRows, NCols int
	Entries      []Triple
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO(nrows, ncols int) *COO {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("spmat: negative dimension %dx%d", nrows, ncols))
	}
	return &COO{NRows: nrows, NCols: ncols}
}

// Add appends the nonzero (i, j). Duplicates are tolerated and removed when
// the COO is compiled to CSC.
func (c *COO) Add(i, j int) {
	if i < 0 || i >= c.NRows || j < 0 || j >= c.NCols {
		panic(fmt.Sprintf("spmat: entry (%d,%d) outside %dx%d", i, j, c.NRows, c.NCols))
	}
	c.Entries = append(c.Entries, Triple{Row: i, Col: j})
}

// NNZ returns the number of stored entries, including duplicates.
func (c *COO) NNZ() int { return len(c.Entries) }

// CSC is a compressed-sparse-columns pattern matrix. RowIdx holds the row
// indices of nonzeros column by column; ColPtr[j]..ColPtr[j+1] delimits
// column j. Row indices are strictly increasing within each column and the
// matrix contains no duplicate entries.
type CSC struct {
	NRows, NCols int
	ColPtr       []int
	RowIdx       []int
}

// ToCSC sorts, deduplicates and compresses the COO matrix into CSC form:
// a counting pass buckets the entries by column, then each column's rows
// are sorted and deduplicated in place.
func (c *COO) ToCSC() *CSC {
	m := &CSC{
		NRows:  c.NRows,
		NCols:  c.NCols,
		ColPtr: make([]int, c.NCols+1),
		RowIdx: make([]int, len(c.Entries)),
	}
	for _, e := range c.Entries {
		m.ColPtr[e.Col+1]++
	}
	for j := 0; j < c.NCols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	next := make([]int, c.NCols)
	copy(next, m.ColPtr[:c.NCols])
	for _, e := range c.Entries {
		m.RowIdx[next[e.Col]] = e.Row
		next[e.Col]++
	}
	// Compact column by column: the write cursor w never passes the start
	// of the column being read, so the dedup can run in place.
	w := 0
	for j := 0; j < c.NCols; j++ {
		col := m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]]
		slices.Sort(col)
		m.ColPtr[j] = w
		for k, r := range col {
			if k > 0 && r == col[k-1] {
				continue // duplicate
			}
			m.RowIdx[w] = r
			w++
		}
	}
	m.ColPtr[c.NCols] = w
	m.RowIdx = m.RowIdx[:w]
	return m
}

// NNZ returns the number of nonzeros.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// Col returns the (sorted) row indices of column j. The returned slice
// aliases the matrix storage and must not be modified.
func (m *CSC) Col(j int) []int {
	return m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]]
}

// ColDegree returns the number of nonzeros in column j.
func (m *CSC) ColDegree(j int) int { return m.ColPtr[j+1] - m.ColPtr[j] }

// Has reports whether entry (i, j) is nonzero, by binary search in column j.
func (m *CSC) Has(i, j int) bool {
	col := m.Col(j)
	k := sort.SearchInts(col, i)
	return k < len(col) && col[k] == i
}

// RowDegrees returns the per-row nonzero counts.
func (m *CSC) RowDegrees() []int {
	deg := make([]int, m.NRows)
	for _, i := range m.RowIdx {
		deg[i]++
	}
	return deg
}

// Transpose returns the transpose of m in CSC form (equivalently, m in CSR
// form), computed by counting sort in O(nnz + n).
func (m *CSC) Transpose() *CSC {
	t := &CSC{
		NRows:  m.NCols,
		NCols:  m.NRows,
		ColPtr: make([]int, m.NRows+1),
		RowIdx: make([]int, m.NNZ()),
	}
	for _, i := range m.RowIdx {
		t.ColPtr[i+1]++
	}
	for i := 0; i < m.NRows; i++ {
		t.ColPtr[i+1] += t.ColPtr[i]
	}
	next := make([]int, m.NRows)
	copy(next, t.ColPtr[:m.NRows])
	for j := 0; j < m.NCols; j++ {
		for _, i := range m.Col(j) {
			t.RowIdx[next[i]] = j
			next[i]++
		}
	}
	return t
}

// Permute returns P·A·Q for permutations given as rowPerm and colPerm, where
// rowPerm[i] is the new index of old row i and colPerm[j] the new index of
// old column j. A nil permutation means identity.
func (m *CSC) Permute(rowPerm, colPerm []int) *CSC {
	if rowPerm != nil && len(rowPerm) != m.NRows {
		panic("spmat: rowPerm length mismatch")
	}
	if colPerm != nil && len(colPerm) != m.NCols {
		panic("spmat: colPerm length mismatch")
	}
	out := NewCOO(m.NRows, m.NCols)
	out.Entries = make([]Triple, 0, m.NNZ())
	for j := 0; j < m.NCols; j++ {
		nj := j
		if colPerm != nil {
			nj = colPerm[j]
		}
		for _, i := range m.Col(j) {
			ni := i
			if rowPerm != nil {
				ni = rowPerm[i]
			}
			out.Entries = append(out.Entries, Triple{Row: ni, Col: nj})
		}
	}
	return out.ToCSC()
}

// Equal reports whether two CSC matrices have identical dimensions and
// nonzero structure.
func (m *CSC) Equal(o *CSC) bool {
	if m.NRows != o.NRows || m.NCols != o.NCols || m.NNZ() != o.NNZ() {
		return false
	}
	for j := range m.ColPtr {
		if m.ColPtr[j] != o.ColPtr[j] {
			return false
		}
	}
	for k := range m.RowIdx {
		if m.RowIdx[k] != o.RowIdx[k] {
			return false
		}
	}
	return true
}

// Triples returns the nonzeros of m in column-major order.
func (m *CSC) Triples() []Triple {
	out := make([]Triple, 0, m.NNZ())
	for j := 0; j < m.NCols; j++ {
		for _, i := range m.Col(j) {
			out = append(out, Triple{Row: i, Col: j})
		}
	}
	return out
}
