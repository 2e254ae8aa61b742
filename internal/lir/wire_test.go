package lir

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzLIRWire holds the wire form to the type: a random Code — every
// field that is not derived, filled by reflection, so a field added to
// Code tomorrow is generated and compared without an edit here — must
// come back from encode → decode equal, floats compared by their bits,
// with Blocks and Fused rebuilt exactly as a cold compile builds them.
// bits is planted in an op immediate and in an OSR constant; the seeds
// are the four values JSON has no number for.
func FuzzLIRWire(f *testing.F) {
	for i, imm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		f.Add(int64(i), math.Float64bits(imm))
	}
	f.Add(int64(4), uint64(0x7ff8_0000_dead_beef)) // a NaN with a payload
	f.Fuzz(func(t *testing.T, seed int64, bits uint64) {
		r := rand.New(rand.NewSource(seed))
		want := &Code{}
		v := reflect.ValueOf(want).Elem()
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name == "Blocks" || name == "Fused" {
				continue
			}
			fv, ok := quick.Value(v.Field(i).Type(), r)
			if !ok {
				t.Fatalf("cannot generate Code.%s", v.Type().Field(i).Name)
			}
			v.Field(i).Set(fv)
		}
		// Well-formed enough for Fuse: real kinds, targets inside the stream.
		for i := range want.Ops {
			op := &want.Ops[i]
			op.Kind %= KindCount
			op.Target = int32(uint32(op.Target) % uint32(len(want.Ops)+1))
		}
		planted := math.Float64frombits(bits)
		want.Ops = append(want.Ops, Op{Kind: KConst, Imm: planted})
		want.OSREntries = append(want.OSREntries, OSREntry{Consts: []ConstSlot{{Reg: 1, Imm: planted}}})
		fused := seed&1 == 0
		if fused {
			want.Fused = Fuse(want)
		}

		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got := &Code{}
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("decode: %v", err)
		}

		if !reflect.DeepEqual(got.Blocks, ComputeBlocks(want)) {
			t.Errorf("Blocks = %+v, ComputeBlocks gives %+v", got.Blocks, ComputeBlocks(want))
		}
		if (got.Fused != nil) != fused {
			t.Errorf("fused form present=%v after decode, want %v", got.Fused != nil, fused)
		}
		got.Blocks, got.Fused, want.Blocks, want.Fused = nil, nil, nil, nil
		// NaN != NaN: compare every float by its bits, then set it aside.
		floats := func(c *Code) (out []*float64) {
			for i := range c.Ops {
				out = append(out, &c.Ops[i].Imm)
			}
			for i := range c.OSREntries {
				for j := range c.OSREntries[i].Consts {
					out = append(out, &c.OSREntries[i].Consts[j].Imm)
				}
			}
			return out
		}
		gf, wf := floats(got), floats(want)
		if len(gf) != len(wf) {
			t.Fatalf("%d floats after the round trip, want %d", len(gf), len(wf))
		}
		for i := range gf {
			if math.Float64bits(*gf[i]) != math.Float64bits(*wf[i]) {
				t.Errorf("float %d: bits %016x, want %016x", i, math.Float64bits(*gf[i]), math.Float64bits(*wf[i]))
			}
			*gf[i], *wf[i] = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the artifact:\n got %+v\nwant %+v", got, want)
		}
	})
}
