package spmat

// Block describes one contiguous block of a 1D index range that has been
// split across processes: global indices [Lo, Hi) map to local 0..Hi-Lo.
type Block struct {
	Lo, Hi int
}

// Len returns the number of indices in the block.
func (b Block) Len() int { return b.Hi - b.Lo }

// Contains reports whether global index g falls inside the block.
func (b Block) Contains(g int) bool { return g >= b.Lo && g < b.Hi }

// SplitRange partitions [0, n) into parts near-equal contiguous blocks, the
// first n%parts blocks being one longer, matching the usual MPI block
// distribution.
func SplitRange(n, parts int) []Block {
	if parts <= 0 {
		panic("spmat: SplitRange with parts <= 0")
	}
	out := make([]Block, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for k := 0; k < parts; k++ {
		size := base
		if k < rem {
			size++
		}
		out[k] = Block{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// BlockAt returns block k of SplitRange(n, parts) in closed form, without
// materializing the partition. O(1) and allocation-free — this sits on the
// per-element path of vector Appends and owner lookups.
func BlockAt(n, parts, k int) Block {
	base, rem := n/parts, n%parts
	if k < rem {
		lo := k * (base + 1)
		return Block{Lo: lo, Hi: lo + base + 1}
	}
	lo := rem*(base+1) + (k-rem)*base
	return Block{Lo: lo, Hi: lo + base}
}

// OwnerOf returns the index of the block containing global index g, for
// blocks produced by SplitRange(n, parts). O(1).
func OwnerOf(n, parts, g int) int {
	base, rem := n/parts, n%parts
	cut := rem * (base + 1)
	if g < cut {
		return g / (base + 1)
	}
	if base == 0 {
		return parts - 1 // g >= cut impossible unless n==cut; defensive
	}
	return rem + (g-cut)/base
}

// LocalMatrix is the submatrix owned by one process of the 2D grid: the
// intersection of one row slab and one column slab of the global matrix,
// stored in DCSC with local (block-relative) indices.
type LocalMatrix struct {
	Rows, Cols Block // global index ranges of this block
	M          *DCSC // local submatrix, indices relative to Rows.Lo/Cols.Lo
}

// Distribute2D splits the global matrix into pr x pc local matrices.
// Element (i, j) of the result is the block owned by grid process (i, j):
// global rows in rowBlocks[i], global columns in colBlocks[j].
//
// Each block's DCSC is built straight from a's columns in two passes over
// each column slab: a count pass sizes every block's JC/CP/IR exactly, and
// a fill pass writes them. Rows within a column are sorted, so a column
// splits into at most pr runs, one per row block, found by advancing the
// row block monotonically.
func Distribute2D(a *CSC, pr, pc int) [][]*LocalMatrix {
	rowBlocks := SplitRange(a.NRows, pr)
	colBlocks := SplitRange(a.NCols, pc)

	out := make([][]*LocalMatrix, pr)
	for i := range out {
		out[i] = make([]*LocalMatrix, pc)
	}
	nnz, nzc := make([]int, pr), make([]int, pr)
	jc, cp, ir := make([][]int, pr), make([][]int, pr), make([][]int, pr)
	for pj, cb := range colBlocks {
		clear(nnz)
		clear(nzc)
		for j := cb.Lo; j < cb.Hi; j++ {
			col := a.Col(j)
			for s, pi := 0, 0; s < len(col); {
				var e int
				pi, e = nextRun(col, s, pi, rowBlocks)
				nnz[pi] += e - s
				nzc[pi]++
				s = e
			}
		}
		for pi := range rowBlocks {
			jc[pi] = make([]int, 0, nzc[pi])
			cp[pi] = append(make([]int, 0, nzc[pi]+1), 0)
			ir[pi] = make([]int, 0, nnz[pi])
		}
		for j := cb.Lo; j < cb.Hi; j++ {
			col := a.Col(j)
			for s, pi := 0, 0; s < len(col); {
				var e int
				pi, e = nextRun(col, s, pi, rowBlocks)
				lo, rows := rowBlocks[pi].Lo, ir[pi]
				for _, r := range col[s:e] {
					rows = append(rows, r-lo)
				}
				ir[pi] = rows
				jc[pi] = append(jc[pi], j-cb.Lo)
				cp[pi] = append(cp[pi], len(rows))
				s = e
			}
		}
		for pi, rb := range rowBlocks {
			out[pi][pj] = &LocalMatrix{
				Rows: rb,
				Cols: cb,
				M:    newDCSC(rb.Len(), cb.Len(), jc[pi], cp[pi], ir[pi]),
			}
		}
	}
	return out
}

// nextRun returns the row block of col[s] — searching forward from block
// pi, which must not lie past it — and the end e of the run col[s:e] of
// entries in that block.
func nextRun(col []int, s, pi int, rowBlocks []Block) (int, int) {
	for col[s] >= rowBlocks[pi].Hi {
		pi++
	}
	hi, e := rowBlocks[pi].Hi, s+1
	for e < len(col) && col[e] < hi {
		e++
	}
	return pi, e
}
