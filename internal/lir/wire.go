package lir

// The wire form of an artifact: how a Code crosses a process boundary
// (the persistent store under the shared compilation cache). It is the
// JSON of the types themselves, with two rules stated here once.
//
// Every float immediate travels as its IEEE-754 bit pattern. JSON has no
// NaN or infinity, a constant folder will happily put either in a KConst
// (and regalloc copies it into a ConstSlot when the loop it was hoisted
// out of gets an OSR entry), and an artifact that does not round-trip
// bit-exactly — NaN payload and -0 included — is not the artifact that was
// compiled.
//
// The derived forms stay out of the record. Blocks and Fused are pure
// functions of the op stream, so only a "was fused" bit is written and
// decoding calls the ComputeBlocks and Fuse a cold compile calls: the
// warm executable form is the cold one because the same code built it.

import (
	"encoding/json"
	"math"
)

// wireOp is Op with short keys (an artifact is mostly ops) and Imm as bits.
type wireOp struct {
	Kind    Kind   `json:"k"`
	Dst     int32  `json:"d,omitempty"`
	A       int32  `json:"a,omitempty"`
	B       int32  `json:"b,omitempty"`
	C       int32  `json:"c,omitempty"`
	Target  int32  `json:"t,omitempty"`
	ImmBits uint64 `json:"i,omitempty"`
	Aux     int32  `json:"x,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (op Op) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireOp{op.Kind, op.Dst, op.A, op.B, op.C, op.Target, math.Float64bits(op.Imm), op.Aux})
}

// UnmarshalJSON implements json.Unmarshaler.
func (op *Op) UnmarshalJSON(data []byte) error {
	var w wireOp
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*op = Op{w.Kind, w.Dst, w.A, w.B, w.C, w.Target, math.Float64frombits(w.ImmBits), w.Aux}
	return nil
}

// wireConstSlot keeps Go's field names, like the side-table structs around it.
type wireConstSlot struct {
	Reg     int32
	ImmBits uint64
}

// MarshalJSON implements json.Marshaler.
func (s ConstSlot) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireConstSlot{s.Reg, math.Float64bits(s.Imm)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *ConstSlot) UnmarshalJSON(data []byte) error {
	var w wireConstSlot
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = ConstSlot{w.Reg, math.Float64frombits(w.ImmBits)}
	return nil
}

// codeFields is Code without its methods, so marshalling it does not
// recurse; Code's struct tags keep Blocks and Fused off the wire.
type codeFields Code

type wireCode struct {
	*codeFields
	Fused bool `json:"fused,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (c *Code) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireCode{(*codeFields)(c), c.Fused != nil})
}

// UnmarshalJSON implements json.Unmarshaler: the plain fields are read
// and the derived ones rebuilt from them.
func (c *Code) UnmarshalJSON(data []byte) error {
	w := wireCode{codeFields: (*codeFields)(c)}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	c.Blocks, c.Fused = ComputeBlocks(c), nil
	if w.Fused {
		c.Fused = Fuse(c)
	}
	return nil
}
