package spmat

import (
	"fmt"
	"math"
)

// DCSC is the doubly compressed sparse columns format used by CombBLAS for
// local submatrices (Buluç & Gilbert). Only the nzc columns that contain at
// least one nonzero are represented in the arrays iterated over:
//
//	JC[k]          = index of the k-th nonempty column (strictly increasing)
//	CP[k]..CP[k+1] = range of IR holding the row indices of column JC[k]
//	IR             = row indices, sorted within each column
//
// DCSC matters in the 2D distribution because a local submatrix of an
// n/√p-column slab frequently has far fewer than n/√p nonempty columns
// (hypersparsity), and iterating over it must cost O(nzc), not O(ncols).
//
// Random access to one column (FindCol, on every frontier entry of the
// SpMV local multiply) is O(1) through a column-position index of 4 bytes
// per local column, half the size of a CSC ColPtr. That index gives up
// DCSC's O(nzc)-only storage, which pays off in the paper's regime of
// thousands of ranks, where a block has far fewer nonempty columns than
// columns; at this package's grid sizes the index is small next to IR.
type DCSC struct {
	NRows, NCols int
	JC           []int   // nonempty column indices, len nzc
	CP           []int   // column pointers, len nzc+1
	IR           []int   // row indices, len nnz
	pos          []int32 // pos[j] = k with JC[k] == j, or -1; len NCols
}

// newDCSC assembles a DCSC from its JC/CP/IR arrays and builds the
// column-position index. It is the only constructor.
func newDCSC(nrows, ncols int, jc, cp, ir []int) *DCSC {
	if ncols > math.MaxInt32 {
		panic(fmt.Sprintf("spmat: DCSC with %d columns exceeds the int32 column index", ncols))
	}
	pos := make([]int32, ncols)
	for j := range pos {
		pos[j] = -1
	}
	for k, j := range jc {
		pos[j] = int32(k)
	}
	return &DCSC{NRows: nrows, NCols: ncols, JC: jc, CP: cp, IR: ir, pos: pos}
}

// ToDCSC converts a CSC matrix to DCSC form. IR aliases m.RowIdx.
func (m *CSC) ToDCSC() *DCSC {
	var jc, cp []int
	for j := 0; j < m.NCols; j++ {
		if m.ColPtr[j+1] > m.ColPtr[j] {
			jc = append(jc, j)
			cp = append(cp, m.ColPtr[j])
		}
	}
	return newDCSC(m.NRows, m.NCols, jc, append(cp, len(m.RowIdx)), m.RowIdx)
}

// ToCSC expands the DCSC matrix back to plain CSC form.
func (d *DCSC) ToCSC() *CSC {
	m := &CSC{
		NRows:  d.NRows,
		NCols:  d.NCols,
		ColPtr: make([]int, d.NCols+1),
		RowIdx: d.IR,
	}
	for k, j := range d.JC {
		m.ColPtr[j+1] = d.CP[k+1] - d.CP[k]
	}
	for j := 0; j < d.NCols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m
}

// NNZ returns the number of nonzeros.
func (d *DCSC) NNZ() int { return len(d.IR) }

// NZC returns the number of nonempty columns.
func (d *DCSC) NZC() int { return len(d.JC) }

// ColByIndex returns the j-th nonempty column: its column index and its
// sorted row indices. The slice aliases the matrix storage.
func (d *DCSC) ColByIndex(k int) (col int, rows []int) {
	return d.JC[k], d.IR[d.CP[k]:d.CP[k+1]]
}

// FindCol returns the sorted row indices of local column j, which must lie
// in [0, NCols), or nil when the column is empty. O(1) through the
// column-position index.
func (d *DCSC) FindCol(j int) []int {
	k := d.pos[j]
	if k < 0 {
		return nil
	}
	return d.IR[d.CP[k]:d.CP[k+1]]
}
