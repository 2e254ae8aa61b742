package engine

// CacheCodec round trip: a real compiled artifact must cross the byte
// boundary and come back execution-equivalent — same ops, same side
// tables, fused form recomputed — and the decision it was compiled under
// must come back as the value it was.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/obs"
)

// cacheValue pulls the single cached compilation out of c.
func cacheValue(t *testing.T, c *jitqueue.Cache) (jitqueue.Key, *cachedCompile) {
	t.Helper()
	keys := c.Keys()
	if len(keys) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(keys))
	}
	v, ok := c.Get(keys[0])
	if !ok {
		t.Fatalf("cache entry vanished")
	}
	return keys[0], v.(*cachedCompile)
}

func TestCacheCodecRoundTripsRealArtifact(t *testing.T) {
	for _, noFuse := range []bool{false, true} {
		t.Run(fmt.Sprintf("noFuse=%v", noFuse), func(t *testing.T) {
			cache := jitqueue.NewCache(nil)
			runHot(t, Config{IonThreshold: 5, Cache: cache, NoFuse: noFuse})
			_, cc := cacheValue(t, cache)
			if cc.code == nil {
				t.Fatal("compiled artifact missing from the cache value")
			}
			if (cc.code.Fused == nil) != noFuse {
				t.Fatalf("fused form present=%v under NoFuse=%v", cc.code.Fused != nil, noFuse)
			}

			codec := NewCacheCodec()
			data, ok := codec.Encode(cc)
			if !ok {
				t.Fatal("Encode refused a plain artifact")
			}
			back, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			got := back.(*cachedCompile)

			// The executable form must be bit-identical: every op, every side
			// table the native tier reads.
			if !reflect.DeepEqual(got.code.Ops, cc.code.Ops) {
				t.Error("op stream changed across the round trip")
			}
			if !reflect.DeepEqual(got.code.ArgLists, cc.code.ArgLists) {
				t.Error("arg lists changed across the round trip")
			}
			if !reflect.DeepEqual(got.code.OSREntries, cc.code.OSREntries) {
				t.Error("OSR entries changed across the round trip")
			}
			if !reflect.DeepEqual(got.code.DeoptExits, cc.code.DeoptExits) {
				t.Error("deopt exits changed across the round trip")
			}
			if got.code.Name != cc.code.Name || got.code.FuncIndex != cc.code.FuncIndex ||
				got.code.NumParams != cc.code.NumParams || got.code.NumRegs != cc.code.NumRegs {
				t.Errorf("header fields changed: got %s/%d/%d/%d want %s/%d/%d/%d",
					got.code.Name, got.code.FuncIndex, got.code.NumParams, got.code.NumRegs,
					cc.code.Name, cc.code.FuncIndex, cc.code.NumParams, cc.code.NumRegs)
			}
			// The fused stream is recomputed, not persisted; Fuse is
			// deterministic over the ops so presence must match.
			if (got.code.Fused == nil) != (cc.code.Fused == nil) {
				t.Errorf("fused form present=%v after decode, want %v",
					got.code.Fused != nil, cc.code.Fused != nil)
			}
			if got.jitEligible != cc.jitEligible || !reflect.DeepEqual(got.decision, cc.decision) {
				t.Errorf("decision changed: got %+v want %+v", got, cc)
			}
		})
	}
}

// TestCacheCodecVerdictPayloads: a decision crosses the byte boundary as
// itself. Each witness chain survives as text (the ID beside it is the
// writing process's and is interned again by the policy on replay —
// core's TestReplayDecisionReinternsChains), and a match with no witness
// chain (NoChain, ^uint32(0) in core) comes back as one: an absent chain
// is not the chain whose text is "".
func TestCacheCodecVerdictPayloads(t *testing.T) {
	codec := NewCacheCodec()
	const noChain = ^uint32(0)
	cc := &cachedCompile{jitEligible: true, decision: CompileDecision{
		NoJIT:          true,
		DisabledPasses: []string{"GVN", "RenumberInstructions"},
		Matches: []obs.Match{
			{CVE: "CVE-A", VDCFunc: "f", Pass: "GVN", ChainID: 7, Side: "removed", Chain: "boundscheck→add→constant(3)"},
			{CVE: "CVE-A", VDCFunc: "f", Pass: "GVN", ChainID: 9, Side: "added", Chain: ""},
			{CVE: "CVE-B", VDCFunc: "g", Pass: "RenumberInstructions", ChainID: noChain},
		},
	}}
	data, ok := codec.Encode(cc)
	if !ok {
		t.Fatal("Encode refused a judged NoJIT record")
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := back.(*cachedCompile)
	if got.code != nil || !got.jitEligible || !reflect.DeepEqual(got.decision, cc.decision) {
		t.Errorf("decision round trip:\n got %+v\nwant %+v", got, cc)
	}

	// A go verdict is a decision too: it comes back empty, not absent.
	goCC := &cachedCompile{jitEligible: true, code: &lir.Code{Ops: []lir.Op{{Kind: lir.KConst}}}}
	data, ok = codec.Encode(goCC)
	if !ok {
		t.Fatal("Encode refused a go-verdict record")
	}
	if back, err = codec.Decode(data); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d := back.(*cachedCompile).decision; d.Verdict() != obs.VerdictGo || len(d.Matches) != 0 {
		t.Errorf("go verdict round trip: %+v", d)
	}
}

func TestCacheCodecRejections(t *testing.T) {
	codec := NewCacheCodec()

	if _, ok := codec.Encode("not a cachedCompile"); ok {
		t.Error("Encode accepted a foreign value")
	}
	// Non-finite immediates must survive the trip bit-exactly — JSON can't
	// carry NaN, so Imm travels as IEEE-754 bits and a constant-folded NaN
	// (or ±Inf, or -0) must not demote the artifact to memory-only.
	nan := &cachedCompile{jitEligible: true, code: &lir.Code{
		Ops: []lir.Op{
			{Kind: lir.KConst, Imm: math.NaN()},
			{Kind: lir.KConst, Dst: 1, Imm: math.Inf(-1)},
			{Kind: lir.KConst, Dst: 2, Imm: math.Copysign(0, -1)},
		},
	}}
	data, ok := codec.Encode(nan)
	if !ok {
		t.Fatal("Encode refused a NaN immediate (should travel as IEEE-754 bits)")
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("Decode of non-finite immediates: %v", err)
	}
	for i, op := range back.(*cachedCompile).code.Ops {
		got, want := math.Float64bits(op.Imm), math.Float64bits(nan.code.Ops[i].Imm)
		if got != want {
			t.Errorf("op %d: Imm bits %016x, want %016x", i, got, want)
		}
	}

	if _, err := codec.Decode([]byte(`{"v":99,"nojit":true}`)); err == nil {
		t.Error("Decode accepted a version-skewed record")
	}
	if _, err := codec.Decode([]byte(`not json`)); err == nil {
		t.Error("Decode accepted garbage")
	}
	if _, err := codec.Decode([]byte(`{"v":2,"decision":{}}`)); err == nil {
		t.Error("Decode accepted a record with neither artifact nor NoJIT")
	}
	// The parent's layout: verdict flags beside the policy's own bytes.
	v1 := `{"v":1,"nojit":true,"disabled":["GVN"],"jit_eligible":true,` +
		`"verdict":{"matches":[{"cve":"CVE-A","vdc_func":"f","pass":"GVN","chain":"a→b","has_chain":true,"side":"removed"}],"names":["GVN"],"nojit":true}}`
	if _, err := codec.Decode([]byte(v1)); err == nil {
		t.Error("Decode accepted a version-1 record")
	}
}
