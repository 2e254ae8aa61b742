package mir_test

import (
	"testing"

	"github.com/jitbull/jitbull/internal/mir"
)

// The map-based CFG walks that the block-indexed ones replaced, kept as
// their reference: the order, the immediate dominators, the dominator-tree
// numbering and the loop depths must come out the same.

// refReversePostorder is the recursive, map-marked reverse postorder.
func refReversePostorder(g *mir.Graph) []*mir.Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	seen := make(map[*mir.Block]bool, len(g.Blocks))
	var order []*mir.Block
	var visit func(b *mir.Block)
	visit = func(b *mir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
		order = append(order, b)
	}
	visit(g.Blocks[0])
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// refIdoms is Cooper-Harvey-Kennedy over block-keyed maps; the entry maps
// to nil.
func refIdoms(rpo []*mir.Block) map[*mir.Block]*mir.Block {
	idom := make(map[*mir.Block]*mir.Block, len(rpo))
	if len(rpo) == 0 {
		return idom
	}
	index := make(map[*mir.Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	entry := rpo[0]
	idom[entry] = entry
	intersect := func(a, b *mir.Block) *mir.Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *mir.Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = nil
	return idom
}

// refDomNumbering numbers the dominator tree by a recursive DFS over
// block-keyed child lists (children in RPO order): [num, last] is a
// block's subtree interval.
func refDomNumbering(rpo []*mir.Block, idom map[*mir.Block]*mir.Block) (num, last map[*mir.Block]int) {
	num, last = map[*mir.Block]int{}, map[*mir.Block]int{}
	children := make(map[*mir.Block][]*mir.Block, len(rpo))
	for _, b := range rpo[1:] {
		children[idom[b]] = append(children[idom[b]], b)
	}
	n := 0
	var dfs func(b *mir.Block)
	dfs = func(b *mir.Block) {
		num[b] = n
		n++
		for _, c := range children[b] {
			dfs(c)
		}
		last[b] = n - 1
	}
	dfs(rpo[0])
	return num, last
}

// refLoopDepths counts, per block, the natural loops (back edges to a
// dominating header, collected with a block-keyed set) that hold it.
func refLoopDepths(rpo []*mir.Block, num, last map[*mir.Block]int) map[*mir.Block]int {
	dominates := func(a, b *mir.Block) bool { return num[a] <= num[b] && num[b] <= last[a] }
	depth := map[*mir.Block]int{}
	for _, b := range rpo {
		for _, s := range b.Succs {
			if !dominates(s, b) {
				continue
			}
			body := map[*mir.Block]bool{s: true}
			stack := []*mir.Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				stack = append(stack, x.Preds...)
			}
			for lb := range body {
				depth[lb]++
			}
		}
	}
	return depth
}

// TestBlockIndexedWalksMatchReference holds ReversePostorder, the
// verifier's idoms and BuildDominators to the map-based reference on every
// graph between passes of the corpus. BuildDominators' state is restored
// after each check, so the compiles proceed exactly as without the test.
func TestBlockIndexedWalksMatchReference(t *testing.T) {
	loops := 0
	graphs := forEachCorpusGraph(t, func(g *mir.Graph) {
		if t.Failed() {
			return
		}
		rpo, want := g.ReversePostorder(), refReversePostorder(g)
		if len(rpo) != len(want) {
			t.Fatalf("%s: RPO has %d blocks, reference %d", g.Name, len(rpo), len(want))
		}
		for i := range rpo {
			if rpo[i] != want[i] {
				t.Fatalf("%s: RPO position %d is block%d, reference block%d", g.Name, i, rpo[i].ID, want[i].ID)
			}
		}
		if len(rpo) == 0 {
			return
		}
		idom, wantIdom := g.Idoms(), refIdoms(rpo)
		for _, b := range rpo {
			if idom[b] != wantIdom[b] {
				t.Fatalf("%s: idom of block%d differs from the reference", g.Name, b.ID)
			}
		}

		saved := make([]mir.DomState, len(g.Blocks))
		for i, b := range g.Blocks {
			saved[i] = b.DomState()
		}
		g.BuildDominators()
		num, last := refDomNumbering(rpo, wantIdom)
		depth := refLoopDepths(rpo, num, last)
		for _, b := range rpo {
			st := b.DomState()
			if st.Idom != wantIdom[b] || st.Num != num[b] || st.Last != last[b] || st.LoopDepth != depth[b] {
				t.Fatalf("%s: block%d has idom/num/last/depth %v/%d/%d/%d, reference %v/%d/%d/%d", g.Name, b.ID,
					st.Idom != nil, st.Num, st.Last, st.LoopDepth, wantIdom[b] != nil, num[b], last[b], depth[b])
			}
			if st.LoopDepth > 0 {
				loops++
			}
		}
		for i, b := range g.Blocks {
			b.SetDomState(saved[i])
		}
	})
	t.Logf("%d graphs, %d blocks in loops", graphs, loops)
	if loops == 0 {
		t.Error("no corpus graph had a loop: the loop depths are untested")
	}
}
