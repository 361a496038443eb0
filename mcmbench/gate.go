package main

import (
	"fmt"
	"hash/fnv"

	"mcmdist"
)

// fingerprint hashes both mate vectors, so that solves returning the same
// matching share one full check.
func fingerprint(m *mcmdist.Matching) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, vs := range [][]int64{m.MateR, m.MateC} {
		for _, v := range vs {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// checkMatching is the correctness gate: m must pass the König certificate
// of maximality and have Hopcroft–Karp's cardinality. A panic while
// checking a malformed matching is a failure too.
func checkMatching(g *mcmdist.Graph, m *mcmdist.Matching, hkCard int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("checking the matching panicked: %v", p)
		}
	}()
	if m == nil {
		return fmt.Errorf("no matching returned")
	}
	if err := g.VerifyMaximum(m); err != nil {
		return err
	}
	if c := m.Cardinality(); c != hkCard {
		return fmt.Errorf("cardinality %d, Hopcroft–Karp finds %d", c, hkCard)
	}
	return nil
}

// exactCounts are the counts the program meters that repeat exactly from
// solve to solve of one run; the determinism gate compares them. The tcp
// byte count is not among them: it varies by a few dozen bytes between
// solves of the same graph, as does the socket write count.
type exactCounts struct {
	Phases, Iterations, InitWork, SpMVWork, MPIMsgs, MPIWords, TCPFrames int64
}

func countsOf(o outcome) exactCounts {
	msgs, words := worldMeter(o.st)
	return exactCounts{
		Phases:     int64(o.st.Phases),
		Iterations: int64(o.st.Iterations),
		InitWork:   o.st.CommByOp["init"].Work,
		SpMVWork:   o.st.CommByOp["spmv"].Work,
		MPIMsgs:    msgs,
		MPIWords:   words,
		TCPFrames:  o.wire.Frames,
	}
}

// worldMeter sums messages and words over every rank of the world.
func worldMeter(st *mcmdist.Stats) (msgs, words int64) {
	for _, cs := range st.PerRank {
		msgs += cs.Msgs
		words += cs.Words
	}
	return msgs, words
}
