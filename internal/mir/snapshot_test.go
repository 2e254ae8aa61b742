package mir

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// refConstantOpcode is snapOpcode's rendering of a constant without the
// cache: the pre-rendered 0–63 range, else strconv's shortest %v form.
func refConstantOpcode(v float64) string {
	if n := int(v); float64(n) == v && n >= 0 && n < 64 {
		return "constant(" + strconv.Itoa(n) + ")"
	}
	return "constant(" + strconv.FormatFloat(v, 'g', -1, 64) + ")"
}

// collidingConstants returns two integral values past the pre-rendered
// range whose renderings share one constOpcodes slot.
func collidingConstants(t testing.TB) (float64, float64) {
	t.Helper()
	first := map[uint64]float64{}
	for v := 64.0; v < 1e6; v++ {
		slot := constSlot(math.Float64bits(v))
		if u, ok := first[slot]; ok {
			return u, v
		}
		first[slot] = v
	}
	t.Fatal("no two constants share a slot")
	return 0, 0
}

// checkSnapUnlessEqual asserts SnapUnlessEqual(prev)'s contract on g and
// returns its result.
func checkSnapUnlessEqual(t *testing.T, g *Graph, prev *Snapshot) *Snapshot {
	t.Helper()
	want, got := g.Snap(), g.SnapUnlessEqual(prev)
	if prev != nil && reflect.DeepEqual(want, prev) {
		if got != prev {
			t.Fatalf("snapshot equals prev %v, but SnapUnlessEqual built %v", prev.Instrs, got.Instrs)
		}
	} else if got == prev || !reflect.DeepEqual(got, want) {
		t.Fatalf("SnapUnlessEqual gave %v, Snap %v (prev %v)", got, want, prev)
	}
	return got
}

// TestSnapUnlessEqualConstants: a constant's payload decides equality as
// its rendering does, across the pre-rendered range, −0, NaNs, infinities
// and values that share a cache slot, rendered in either order.
func TestSnapUnlessEqualConstants(t *testing.T) {
	x, y := collidingConstants(t)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	values := []float64{0, math.Copysign(0, -1), 1, 63, 64, -1, 0.5, 255, 1023, 65536, 1000003, 1e300,
		math.NaN(), otherNaN, math.Inf(1), math.Inf(-1), x, y}
	g := NewGraph("c", 0, 0)
	b := g.NewBlock()
	c := b.Append(g.NewInstr(OpConstant, TypeDouble))
	b.Append(g.NewInstr(OpReturn, TypeNone, c))
	for _, u := range values {
		for _, v := range values {
			c.Num = u
			prev := g.Snap()
			if op := prev.Instrs[0].Opcode; op != refConstantOpcode(u) {
				t.Fatalf("constant %v renders %q, want %q", u, op, refConstantOpcode(u))
			}
			c.Num = v
			got := checkSnapUnlessEqual(t, g, prev)
			if (got == prev) != (refConstantOpcode(u) == refConstantOpcode(v)) {
				t.Fatalf("constants %v then %v: same snapshot %v", u, v, got == prev)
			}
		}
	}
}

// TestConstOpcodeSlotCollision: two values sharing a slot each render as
// themselves however their lookups interleave, within one goroutine and
// across the compile workers that snapshot at once.
func TestConstOpcodeSlotCollision(t *testing.T) {
	x, y := collidingConstants(t)
	for _, v := range []float64{x, y, y, x, x, y} {
		if got, want := constantOpcode(v), refConstantOpcode(v); got != want {
			t.Fatalf("constantOpcode(%v) = %q, want %q", v, got, want)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := []float64{x, y}[(i+w)%2]
				if got, want := constantOpcode(v), refConstantOpcode(v); got != want {
					t.Errorf("constantOpcode(%v) = %q, want %q", v, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSnapUnlessEqual applies a script of graph edits — constant payloads
// (a, b), comparison kinds, opcodes, operand order, IDs, dead marks,
// skipped frame-map markers, successor order, renumbering, the function
// name — and after each one holds SnapUnlessEqual(prev) to Snap.
func FuzzSnapUnlessEqual(f *testing.F) {
	f.Add(1000003.0, 255.0, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(1000003.0, 255.0, []byte{43, 71, 57}) // payload-only edits: a := b, a := 66, then b := b (no change)
	f.Add(math.Copysign(0, -1), 0.0, []byte{1, 12, 1, 23})
	f.Add(math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1), []byte{1, 1, 13, 1})
	f.Add(64.0, 63.0, []byte{1, 2, 1, 7, 9, 1})
	f.Fuzz(func(t *testing.T, a, b float64, script []byte) {
		if len(script) > 64 {
			script = script[:64] // longer scripts grow the graph, not the coverage
		}
		g := NewGraph("f", 0, 1)
		entry, left, right, join := g.NewBlock(), g.NewBlock(), g.NewBlock(), g.NewBlock()
		p := entry.Append(g.NewInstr(OpParameter, TypeValue))
		ca := entry.Append(g.NewInstr(OpConstant, TypeDouble))
		ca.Num = a
		cb := entry.Append(g.NewInstr(OpConstant, TypeDouble))
		cb.Num = b
		cmp := entry.Append(g.NewInstr(OpCompare, TypeBoolean, ca, cb))
		cmp.Aux = int(CmpLt)
		entry.Append(g.NewInstr(OpTest, TypeNone, cmp))
		AddEdge(entry, left)
		AddEdge(entry, right)
		add := left.Append(g.NewInstr(OpAdd, TypeDouble, ca, cb))
		left.Append(g.NewInstr(OpGoto, TypeNone))
		AddEdge(left, join)
		sub := right.Append(g.NewInstr(OpSub, TypeDouble, cb, ca))
		right.Append(g.NewInstr(OpGoto, TypeNone))
		AddEdge(right, join)
		phi := join.AddPhi(g.NewInstr(OpPhi, TypeDouble, add, sub))
		join.Append(g.NewInstr(OpReturn, TypeNone, phi))
		body := []*Instr{p, ca, cb, cmp, add, sub, phi}

		prev := checkSnapUnlessEqual(t, g, nil)
		for _, op := range script {
			in := body[int(op>>4)%len(body)]
			switch op % 14 {
			case 1: // a constant's payload: a, b, or a value past the cache range
				c := []*Instr{ca, cb}[op>>4&1]
				c.Num = []float64{a, b, 64 + float64(op>>5)}[int(op>>5)%3]
			case 2:
				cmp.Aux = int(CmpLt) + int(op>>4)%6
			case 3:
				if in.Op == OpAdd {
					in.Op = OpSub
				} else if in.Op == OpSub {
					in.Op = OpAdd
				}
			case 4:
				if len(in.Operands) == 2 {
					in.Operands[0], in.Operands[1] = in.Operands[1], in.Operands[0]
				}
			case 5:
				in.ID = int(op >> 4)
			case 6:
				in.Dead = !in.Dead
			case 7:
				entry.Succs[0], entry.Succs[1] = entry.Succs[1], entry.Succs[0]
			case 8:
				m := g.NewInstr([]Op{OpSnapshot, OpOSREntry}[op>>4&1], TypeNone, in)
				join.InsertBeforeControl(m)
			case 9:
				g.Renumber()
			case 10:
				g.Name = []string{"f", "g"}[op>>4&1]
			case 11:
				p.Aux = int(op >> 4)
			case 12:
				if in.Op == OpPhi {
					in.Operands = in.Operands[:1]
				}
			case 13:
				in.Op = []Op{OpMathFunc, OpCall, OpCallSpec, OpNeg}[op>>4&3]
			}
			prev = checkSnapUnlessEqual(t, g, prev)
		}
	})
}
