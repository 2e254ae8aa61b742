package mir

// Hooks for the external tests, which compare the block-indexed CFG walks
// with their map-based reference over graphs the whole engine builds.

// Idoms returns computeIdoms over the graph's reverse postorder as a map
// from each reachable block to its immediate dominator (nil for the
// entry).
func (g *Graph) Idoms() map[*Block]*Block {
	rpo := g.ReversePostorder()
	idom := computeIdoms(rpo, g.rpoPositions(rpo))
	out := make(map[*Block]*Block, len(rpo))
	for i, b := range rpo {
		out[b] = nil
		if idom[i] >= 0 {
			out[b] = rpo[idom[i]]
		}
	}
	return out
}

// DomState is the dominator-tree state BuildDominators leaves on a block.
type DomState struct {
	Idom                 *Block
	Num, Last, LoopDepth int
}

// DomState returns the block's dominator-tree state.
func (b *Block) DomState() DomState {
	return DomState{Idom: b.idom, Num: b.domNum, Last: b.domLast, LoopDepth: b.LoopDepth}
}

// SetDomState restores a state DomState returned.
func (b *Block) SetDomState(s DomState) {
	b.idom, b.domNum, b.domLast, b.LoopDepth = s.Idom, s.Num, s.Last, s.LoopDepth
}
