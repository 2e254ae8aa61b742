// Cross-process serialization of cached compilations.
//
// The shared cache's values (cachedCompile) are pointers into process
// memory; the persistent second tier (internal/store) needs them as
// self-contained bytes. The policy's decision is plain data and travels
// as the JSON of CompileDecision itself — a match carries its witness
// chain as text, and the policy interns it again when the decision is
// replayed in the reading process. One part does not survive a process
// boundary as-is:
//
//   - the artifact's derived forms — basic-block metadata and the fused
//     superinstruction stream — are deterministic pure functions of the
//     op stream (lir.ComputeBlocks, lir.Fuse), so only the plain op
//     stream plus a "was fused" bit is persisted and the rest is
//     recomputed on decode. That keeps records small and, more
//     importantly, keeps the executable form bit-identical to a cold
//     compile: both sides run the same fuser over the same ops.
//
// Everything else in lir.Code is already plain exported data and
// round-trips through JSON unchanged. The store wraps these bytes in its
// own checksummed envelope, so this layer can trust what it is handed —
// a record that fails to decode here is version skew, not corruption,
// and degrades to a cache miss.
package engine

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/lir"
)

// persistVersion is the engine-record layout version inside the store's
// envelope. Bump on any incompatible change to persistCompile/persistCode;
// a mismatched record decodes to an error and the cache treats it as a
// miss (the store's envelope version covers the container, this one the
// engine payload).
const persistVersion = 2

// persistCode is the on-disk form of one artifact: lir.Code's plain data
// fields, with the derived Blocks/Fused omitted (recomputed on decode).
type persistCode struct {
	Name       string          `json:"name"`
	FuncIndex  int             `json:"func_index"`
	NumParams  int             `json:"num_params"`
	NumRegs    int             `json:"num_regs"`
	Ops        []persistOp     `json:"ops"`
	ArgLists   [][]int32       `json:"arg_lists,omitempty"`
	OSREntries []lir.OSREntry  `json:"osr_entries,omitempty"`
	DeoptExits []lir.DeoptExit `json:"deopt_exits,omitempty"`
}

// persistOp is one op on the wire. Imm travels as its IEEE-754 bit
// pattern: JSON cannot represent NaN or the infinities, and a constant
// folder will happily put them in a KConst — an artifact must round-trip
// bit-exactly (including NaN payload bits and -0) or the warm process
// recompiles and the pipeline-elimination guarantee is gone.
type persistOp struct {
	Kind    lir.Kind `json:"k"`
	Dst     int32    `json:"d,omitempty"`
	A       int32    `json:"a,omitempty"`
	B       int32    `json:"b,omitempty"`
	C       int32    `json:"c,omitempty"`
	Target  int32    `json:"t,omitempty"`
	ImmBits uint64   `json:"i,omitempty"`
	Aux     int32    `json:"x,omitempty"`
}

func persistOps(ops []lir.Op) []persistOp {
	out := make([]persistOp, len(ops))
	for i, op := range ops {
		out[i] = persistOp{
			Kind:    op.Kind,
			Dst:     op.Dst,
			A:       op.A,
			B:       op.B,
			C:       op.C,
			Target:  op.Target,
			ImmBits: math.Float64bits(op.Imm),
			Aux:     op.Aux,
		}
	}
	return out
}

func restoreOps(ops []persistOp) []lir.Op {
	out := make([]lir.Op, len(ops))
	for i, op := range ops {
		out[i] = lir.Op{
			Kind:   op.Kind,
			Dst:    op.Dst,
			A:      op.A,
			B:      op.B,
			C:      op.C,
			Target: op.Target,
			Imm:    math.Float64frombits(op.ImmBits),
			Aux:    op.Aux,
		}
	}
	return out
}

// persistCompile is the on-disk form of one cached compilation.
type persistCompile struct {
	V           int             `json:"v"`
	Decision    CompileDecision `json:"decision"`
	JitEligible bool            `json:"jit_eligible,omitempty"`
	Fused       bool            `json:"fused,omitempty"`
	Code        *persistCode    `json:"code,omitempty"`
}

// CacheCodec implements jitqueue.Codec over the engine's cache values. It
// needs nothing from the policy: a decision is persisted as it stands.
type CacheCodec struct{}

// NewCacheCodec builds the codec.
func NewCacheCodec() *CacheCodec { return &CacheCodec{} }

var _ jitqueue.Codec = (*CacheCodec)(nil)

// Encode implements jitqueue.Codec.
func (c *CacheCodec) Encode(v any) ([]byte, bool) {
	cc, ok := v.(*cachedCompile)
	if !ok {
		return nil, false
	}
	p := persistCompile{V: persistVersion, Decision: cc.decision, JitEligible: cc.jitEligible}
	if cc.code != nil {
		p.Fused = cc.code.Fused != nil
		p.Code = &persistCode{
			Name:       cc.code.Name,
			FuncIndex:  cc.code.FuncIndex,
			NumParams:  cc.code.NumParams,
			NumRegs:    cc.code.NumRegs,
			Ops:        persistOps(cc.code.Ops),
			ArgLists:   cc.code.ArgLists,
			OSREntries: cc.code.OSREntries,
			DeoptExits: cc.code.DeoptExits,
		}
	}
	data, err := json.Marshal(p)
	if err != nil {
		// Unmarshalable values stay memory-only (defensive: the op stream's
		// immediates already travel as IEEE-754 bits, so nothing here should
		// be able to trip this).
		return nil, false
	}
	return data, true
}

// Decode implements jitqueue.Codec.
func (c *CacheCodec) Decode(data []byte) (any, error) {
	var p persistCompile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("cache record does not parse: %w", err)
	}
	if p.V != persistVersion {
		return nil, fmt.Errorf("cache record version %d (want %d)", p.V, persistVersion)
	}
	if p.Code == nil && !p.Decision.NoJIT {
		return nil, fmt.Errorf("cache record carries neither artifact nor NoJIT verdict")
	}
	cc := &cachedCompile{decision: p.Decision, jitEligible: p.JitEligible}
	if p.Code != nil {
		code := &lir.Code{
			Name:       p.Code.Name,
			FuncIndex:  p.Code.FuncIndex,
			NumParams:  p.Code.NumParams,
			NumRegs:    p.Code.NumRegs,
			Ops:        restoreOps(p.Code.Ops),
			ArgLists:   p.Code.ArgLists,
			OSREntries: p.Code.OSREntries,
			DeoptExits: p.Code.DeoptExits,
		}
		if p.Fused {
			// Deterministic recompute: Fuse over the same ops emits the same
			// superinstruction stream a cold compile attached, so fused
			// dispatch behaves bit-identically to the original artifact.
			code.Fused = lir.Fuse(code)
		}
		cc.code = code
	}
	return cc, nil
}
