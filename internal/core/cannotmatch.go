package core

// The cannot-match test: before a watched pass's Δ is extracted, decide
// from the two graphs alone whether any database entry of the pass could
// still be similar to it.
//
// Every δ⁻ chain is a contiguous run of some chain of the "before" graph —
// a whole chain, or alignDiff's anchored run of one — and every chain is a
// path along dependency edges (walkChains), truncations included. So every
// δ⁻ chain is a token-labelled path of the before graph, and likewise
// every δ⁺ chain one of the after graph. A side shares at least max(Thr,1)
// chains with an entry whenever query reports it (degenerate thresholds
// aside), so an entry none of whose sides has that many chains among the
// graph's paths cannot match whatever the Δ turns out to be. The test is
// exact in that direction only: a pass it passes may still match nothing.

// mayMatch reports whether some entry of pp could be similar to the Δ
// between pre and post under the index's Thr. It never reports false for
// a pass whose Δ query would match; degenerate thresholds (Thr ≤ 0 and
// Ratio ≤ 0, which accept pairs sharing no chain) always report true.
func (de *deltaExtractor) mayMatch(ix *MatchIndex, pp *passPostings, ratio float64, pre, post *irState) bool {
	if ix.thr <= 0 && ratio <= 0 {
		return true
	}
	minShared := max(ix.thr, 1)
	de.shared = grow(de.shared, len(ix.entries))
	for side, st := range [2]*irState{pre, post} {
		cands := pp.paths[side]
		if len(cands) < minShared {
			continue
		}
		de.bucket(ix, st)
		reached := false
		de.sharedTouched = de.sharedTouched[:0]
		for i := range cands {
			if !de.isPath(st, cands[i].toks) {
				continue
			}
			for _, id := range cands[i].entries {
				if de.shared[id] == 0 {
					de.sharedTouched = append(de.sharedTouched, id)
				}
				de.shared[id]++
				reached = reached || int(de.shared[id]) >= minShared
			}
			if reached {
				break
			}
		}
		for _, id := range de.sharedTouched {
			de.shared[id] = 0
		}
		if reached {
			return true
		}
	}
	return false
}

// bucket sorts st's nodes by token, for the tokens of ix's vocabulary
// (the only ones a posted chain holds), once per state and index.
func (de *deltaExtractor) bucket(ix *MatchIndex, st *irState) {
	if st.bucketed == ix {
		return
	}
	st.bucketed = ix
	n := len(ix.toks)
	starts := grow(st.tokStart, n+1)
	clear(starts)
	for _, t := range st.g.toks {
		if int(t) < n {
			starts[t+1]++
		}
	}
	for t := 1; t <= n; t++ {
		starts[t] += starts[t-1]
	}
	nodes := grow(st.byTok, int(starts[n]))
	for v, t := range st.g.toks {
		if int(t) < n {
			nodes[starts[t]] = int32(v)
			starts[t]++
		}
	}
	// The fill advanced each start to the next token's: shift back.
	copy(starts[1:], starts[:n])
	starts[0] = 0
	st.tokStart, st.byTok = starts, nodes
}

// isPath reports whether the token sequence labels a walk along st's
// dependency edges: a breadth-first frontier of the nodes that can end
// each prefix, deduplicated by a stamp per node.
func (de *deltaExtractor) isPath(st *irState, toks []uint32) bool {
	g := &st.g
	t0 := toks[0]
	front := append(de.frontier[:0], st.byTok[st.tokStart[t0]:st.tokStart[t0+1]]...)
	if len(de.mark) < len(g.toks) {
		de.mark = make([]uint32, len(g.toks)) // zeros: below every stamp
	}
	next := de.fnext[:0]
	for _, t := range toks[1:] {
		if len(front) == 0 {
			break
		}
		de.stamp++
		if de.stamp == 0 { // wrapped: no mark may equal a stamp still to come
			clear(de.mark)
			de.stamp = 1
		}
		next = next[:0]
		for _, v := range front {
			for _, d := range g.depList[g.depStart[v]:g.depStart[v+1]] {
				if g.toks[d] == t && de.mark[d] != de.stamp {
					de.mark[d] = de.stamp
					next = append(next, d)
				}
			}
		}
		front, next = next, front
	}
	de.frontier, de.fnext = front, next
	return len(front) > 0
}
