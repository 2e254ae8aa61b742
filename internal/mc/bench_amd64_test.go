//go:build amd64 && (linux || darwin)

package mc

import (
	"testing"

	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// BenchmarkLoopMC is the machine-code counterpart of internal/native's
// BenchmarkLoopFused: the same kernel (acc += i; i = i + 1 until i >= n,
// a do-while whose back edge is the branch), the same 10 000 iterations,
// one activation per iteration of the benchmark.
func BenchmarkLoopMC(b *testing.B) {
	u, err := Compile(&lir.Code{
		Name: "loop", NumParams: 1, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},
			{Kind: lir.KConst, Dst: 1, Imm: 0},
			{Kind: lir.KConst, Dst: 2, Imm: 0},
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 1}, // head
			{Kind: lir.KConst, Dst: 3, Imm: 1},
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 3},
			{Kind: lir.KCmp, Dst: 4, A: 1, B: 0, Aux: 4},
			{Kind: lir.KBranchFalse, A: 4, Target: 3},
			{Kind: lir.KRetNum, A: 2},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := newStub()
	pool := &native.Pool{}
	args := []value.Value{value.Num(10000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.Exec(args, h, 0, pool); err != nil {
			b.Fatal(err)
		}
	}
}
