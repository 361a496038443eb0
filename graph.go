package mcmdist

import (
	"fmt"
	"io"

	"mcmdist/internal/gen"
	"mcmdist/internal/mtx"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// Graph is a bipartite graph G = (R, C, E) stored as an n1 x n2 sparse
// pattern matrix: rows are R vertices, columns are C vertices, and a
// nonzero at (i, j) is an edge.
type Graph struct {
	a *spmat.CSC
}

// FromEdges builds a graph from an edge list; duplicate edges are merged.
func FromEdges(nrows, ncols int, edges [][2]int) (*Graph, error) {
	if nrows < 0 || ncols < 0 {
		return nil, fmt.Errorf("mcmdist: negative dimensions %dx%d", nrows, ncols)
	}
	coo := spmat.NewCOO(nrows, ncols)
	coo.Entries = make([]spmat.Triple, 0, len(edges))
	for _, e := range edges {
		if e[0] < 0 || e[0] >= nrows || e[1] < 0 || e[1] >= ncols {
			return nil, fmt.Errorf("mcmdist: edge (%d,%d) outside %dx%d", e[0], e[1], nrows, ncols)
		}
		coo.Add(e[0], e[1])
	}
	return &Graph{a: coo.ToCSC()}, nil
}

// FromMatrixMarket parses a Matrix Market stream (the SuiteSparse exchange
// format used for the paper's Table II inputs).
func FromMatrixMarket(r io.Reader) (*Graph, error) {
	a, err := mtx.Read(r)
	if err != nil {
		return nil, err
	}
	return &Graph{a: a}, nil
}

// FromMatrixMarketFile reads a Matrix Market file from disk.
func FromMatrixMarketFile(path string) (*Graph, error) {
	a, err := mtx.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{a: a}, nil
}

// WriteMatrixMarket serializes the graph in Matrix Market format.
func (g *Graph) WriteMatrixMarket(w io.Writer) error {
	return mtx.Write(w, g.a)
}

// RMATClass selects the synthetic matrix family of the paper's Section V-B.
type RMATClass int

const (
	// G500 is the Graph500 seed (a=.57, b=c=.19, d=.05): skewed degrees.
	G500 RMATClass = iota
	// SSCA is the HPCS SSCA#2 seed (a=.6, b=c=d=.4/3).
	SSCA
	// ER is Erdős–Rényi (a=b=c=d=.25): uniform degrees.
	ER
)

func (c RMATClass) params() (rmat.Params, error) {
	switch c {
	case G500:
		return rmat.G500, nil
	case SSCA:
		return rmat.SSCA, nil
	case ER:
		return rmat.ER, nil
	default:
		return rmat.Params{}, fmt.Errorf("mcmdist: unknown RMAT class %d", int(c))
	}
}

// String names the class.
func (c RMATClass) String() string {
	switch c {
	case G500:
		return "G500"
	case SSCA:
		return "SSCA"
	case ER:
		return "ER"
	default:
		return fmt.Sprintf("RMATClass(%d)", int(c))
	}
}

// RMAT generates a 2^scale x 2^scale synthetic graph of the given class.
// Pass edgeFactor 0 for the paper's default (32 for G500/ER, 16 for SSCA).
func RMAT(class RMATClass, scale, edgeFactor int, seed int64) (*Graph, error) {
	p, err := class.params()
	if err != nil {
		return nil, err
	}
	if edgeFactor == 0 {
		edgeFactor = p.EdgeFactor()
	}
	a, err := rmat.Generate(p, scale, edgeFactor, seed)
	if err != nil {
		return nil, err
	}
	return &Graph{a: a}, nil
}

// TableII generates the named structural stand-in for one of the 13 real
// matrices in the paper's Table II (see DESIGN.md for the substitution
// rationale) at roughly 2^scale vertices per side.
func TableII(name string, scale int) (*Graph, error) {
	sp, err := gen.FindSpec(name)
	if err != nil {
		return nil, err
	}
	a, err := gen.Generate(sp, scale)
	if err != nil {
		return nil, err
	}
	return &Graph{a: a}, nil
}

// TableIINames lists the stand-in suite in Table II order.
func TableIINames() []string {
	specs := gen.Suite()
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

// Rows returns |R|, the number of row vertices.
func (g *Graph) Rows() int { return g.a.NRows }

// Cols returns |C|, the number of column vertices.
func (g *Graph) Cols() int { return g.a.NCols }

// Edges returns |E|, the number of distinct edges.
func (g *Graph) Edges() int { return g.a.NNZ() }

// HasEdge reports whether (row, col) is an edge.
func (g *Graph) HasEdge(row, col int) bool {
	return row >= 0 && row < g.a.NRows && col >= 0 && col < g.a.NCols && g.a.Has(row, col)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("bipartite graph %d x %d, %d edges", g.a.NRows, g.a.NCols, g.a.NNZ())
}
