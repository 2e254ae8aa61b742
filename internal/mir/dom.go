package mir

// computeIdoms returns the immediate dominator of every block in rpo, as
// RPO positions: idom[i] is the position of rpo[i]'s immediate dominator,
// -1 for the entry (Cooper-Harvey-Kennedy iterative algorithm). pos maps
// block IDs to RPO positions (see rpoPositions). It does not touch any
// graph or block state, so it is safe to call from read-only consumers
// such as the verifier.
func computeIdoms(rpo []*Block, pos []int32) []int32 {
	idom := make([]int32, len(rpo))
	for i := range idom {
		idom[i] = -1
	}
	if len(rpo) == 0 {
		return idom
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(rpo); i++ {
			newIdom := int32(-1)
			for _, p := range rpo[i].Preds {
				pi := pos[p.ID]
				if pi < 0 || idom[pi] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = pi
				} else {
					newIdom = intersect(pi, newIdom)
				}
			}
			if newIdom >= 0 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	idom[0] = -1
	return idom
}

// BuildDominators computes the dominator tree using the Cooper-Harvey-
// Kennedy iterative algorithm, then numbers the tree for O(1) Dominates
// queries, and recomputes loop depths from back edges.
func (g *Graph) BuildDominators() {
	rpo := g.ReversePostorder()
	if len(rpo) == 0 {
		return
	}
	idom := computeIdoms(rpo, g.rpoPositions(rpo))

	// Number the dominator tree in depth-first preorder, children in RPO
	// order: a block's interval [domNum, domLast] spans its subtree. A
	// dominator precedes the blocks it dominates in RPO, so one backward
	// pass sizes every subtree and one forward pass hands each child the
	// next free number under its parent. (A block left without an idom,
	// which only a graph with inconsistent edges has, stays unnumbered
	// along with its subtree.)
	size, next := make([]int32, len(rpo)), make([]int32, len(rpo))
	for i := len(rpo) - 1; i >= 0; i-- {
		size[i]++
		if i > 0 && idom[i] >= 0 {
			size[idom[i]] += size[i]
		}
	}
	rpo[0].idom, rpo[0].domNum, rpo[0].domLast = nil, 0, int(size[0])-1
	next[0] = 1
	for i := 1; i < len(rpo); i++ {
		b, p := rpo[i], idom[i]
		b.idom = nil
		if p < 0 {
			continue
		}
		b.idom = rpo[p]
		if next[p] == 0 {
			continue // p is unnumbered
		}
		num := next[p]
		next[p] += size[i]
		b.domNum, b.domLast = int(num), int(num+size[i])-1
		next[i] = num + 1
	}

	g.computeLoopDepths(rpo)
}

// computeLoopDepths finds natural loops (back edges to a dominating header)
// and sets LoopDepth to the nesting level of each block.
func (g *Graph) computeLoopDepths(rpo []*Block) {
	for _, b := range rpo {
		b.LoopDepth = 0
	}
	for _, b := range rpo {
		for _, s := range b.Succs {
			if s.Dominates(b) {
				// back edge b -> s; collect the natural loop of header s.
				for _, lb := range naturalLoop(s, b) {
					lb.LoopDepth++
				}
			}
		}
	}
}

// naturalLoop returns the blocks of the natural loop with the given header
// and back-edge source (header first).
func naturalLoop(header, backEdgeSrc *Block) []*Block {
	inBody := make([]bool, header.Graph.nextBlock)
	inBody[header.ID] = true
	body := []*Block{header}
	stack := []*Block{backEdgeSrc}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if inBody[b.ID] {
			continue
		}
		inBody[b.ID] = true
		body = append(body, b)
		stack = append(stack, b.Preds...)
	}
	return body
}

// LoopBodies returns, for each natural loop, its header and member set.
// Valid after BuildDominators.
func (g *Graph) LoopBodies() []Loop {
	var loops []Loop
	byHeader := map[*Block]int{}
	for _, b := range g.ReversePostorder() {
		for _, s := range b.Succs {
			if !s.Dominates(b) {
				continue
			}
			idx, ok := byHeader[s]
			if !ok {
				idx = len(loops)
				byHeader[s] = idx
				loops = append(loops, Loop{Header: s, Body: map[*Block]bool{}})
			}
			for _, lb := range naturalLoop(s, b) {
				loops[idx].Body[lb] = true
			}
		}
	}
	return loops
}

// Loop is a natural loop: its header block and the set of member blocks
// (header included).
type Loop struct {
	Header *Block
	Body   map[*Block]bool
}

// Contains reports whether the loop body includes b.
func (l Loop) Contains(b *Block) bool { return l.Body[b] }
