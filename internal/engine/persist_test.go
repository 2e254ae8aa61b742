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
			if cc.Code == nil {
				t.Fatal("compiled artifact missing from the cache value")
			}
			if (cc.Code.Fused == nil) != noFuse {
				t.Fatalf("fused form present=%v under NoFuse=%v", cc.Code.Fused != nil, noFuse)
			}

			codec := NewCacheCodec()
			data, err := codec.Encode(cc)
			if err != nil {
				t.Fatalf("Encode refused a plain artifact: %v", err)
			}
			back, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			got := back.(*cachedCompile)

			// The executable form must be bit-identical: every op, every side
			// table the native tier reads.
			if !reflect.DeepEqual(got.Code.Ops, cc.Code.Ops) {
				t.Error("op stream changed across the round trip")
			}
			if !reflect.DeepEqual(got.Code.ArgLists, cc.Code.ArgLists) {
				t.Error("arg lists changed across the round trip")
			}
			if !reflect.DeepEqual(got.Code.OSREntries, cc.Code.OSREntries) {
				t.Error("OSR entries changed across the round trip")
			}
			if !reflect.DeepEqual(got.Code.DeoptExits, cc.Code.DeoptExits) {
				t.Error("deopt exits changed across the round trip")
			}
			if got.Code.Name != cc.Code.Name || got.Code.FuncIndex != cc.Code.FuncIndex ||
				got.Code.NumParams != cc.Code.NumParams || got.Code.NumRegs != cc.Code.NumRegs {
				t.Errorf("header fields changed: got %s/%d/%d/%d want %s/%d/%d/%d",
					got.Code.Name, got.Code.FuncIndex, got.Code.NumParams, got.Code.NumRegs,
					cc.Code.Name, cc.Code.FuncIndex, cc.Code.NumParams, cc.Code.NumRegs)
			}
			// The fused stream is recomputed, not persisted; Fuse is
			// deterministic over the ops so presence must match.
			if (got.Code.Fused == nil) != (cc.Code.Fused == nil) {
				t.Errorf("fused form present=%v after decode, want %v",
					got.Code.Fused != nil, cc.Code.Fused != nil)
			}
			if got.JitEligible != cc.JitEligible || !reflect.DeepEqual(got.Decision, cc.Decision) {
				t.Errorf("decision changed: got %+v want %+v", got, cc)
			}
		})
	}
	t.Run("osr+nonfinite", nonFiniteOSRConstants)
}

// nonFiniteSrc is a loop whose hoisted constant is +Inf: with OSR on,
// regalloc records it as a ConstSlot of the loop's entry. Before the
// artifact marshalled itself, the engine's hand copy of lir.Code sent that
// immediate through encoding/json as a float, Encode failed, and the
// function compiled cold in every process.
const nonFiniteSrc = `
function f(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    if (s > 1 / 0) { s = 0; }
    s = s + i;
    i = i + 1;
  }
  return s;
}
var result = f(5000);
`

// nonFiniteOSRConstants is TestCacheCodecRoundTripsRealArtifact's OSR case:
// every float an artifact holds crosses the byte boundary as its bit
// pattern — the OSR prologue's rematerialised constants as well as the op
// stream's immediates.
func nonFiniteOSRConstants(t *testing.T) {
	cache := jitqueue.NewCache(nil)
	e, err := New(nonFiniteSrc, Config{IonThreshold: 100, OSR: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	_, cc := cacheValue(t, cache)
	if cc.Code == nil || len(cc.Code.OSREntries) != 1 {
		t.Fatalf("want one artifact with one OSR entry, got %+v", cc.Code)
	}
	hasInf := false
	for _, c := range cc.Code.OSREntries[0].Consts {
		hasInf = hasInf || math.IsInf(c.Imm, 1)
	}
	if !hasInf {
		t.Fatalf("the pipeline no longer hoists +Inf into the OSR entry: %+v", cc.Code.OSREntries[0])
	}
	// The real entry, widened with the other values JSON has no number for.
	code := *cc.Code
	entry := code.OSREntries[0]
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	for i, imm := range []float64{nanPayload, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		entry.Consts = append(entry.Consts, lir.ConstSlot{Reg: int32(100 + i), Imm: imm})
	}
	code.OSREntries = []lir.OSREntry{entry}
	want := &cachedCompile{JitEligible: true, Code: &code}

	codec := NewCacheCodec()
	data, err := codec.Encode(want)
	if err != nil {
		t.Fatalf("Encode refused non-finite OSR constants: %v", err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := back.(*cachedCompile).Code.OSREntries[0]
	if len(got.Consts) != len(entry.Consts) {
		t.Fatalf("%d constants after the round trip, want %d", len(got.Consts), len(entry.Consts))
	}
	for i, c := range got.Consts {
		if w := entry.Consts[i]; c.Reg != w.Reg || math.Float64bits(c.Imm) != math.Float64bits(w.Imm) {
			t.Errorf("constant %d: r%d %016x, want r%d %016x", i, c.Reg, math.Float64bits(c.Imm), w.Reg, math.Float64bits(w.Imm))
		}
	}
	// NaN != NaN, so the rest of the entry is compared with Consts set aside.
	got.Consts, entry.Consts = nil, nil
	if !reflect.DeepEqual(got, entry) {
		t.Errorf("OSR entry changed across the round trip:\n got %+v\nwant %+v", got, entry)
	}
}

// TestCacheCodecVerdictPayloads: a decision crosses the byte boundary as
// itself. Each witness chain survives as text, and a match with no witness
// chain comes back as one.
func TestCacheCodecVerdictPayloads(t *testing.T) {
	codec := NewCacheCodec()
	cc := &cachedCompile{JitEligible: true, Decision: CompileDecision{
		NoJIT:          true,
		DisabledPasses: []string{"GVN", "RenumberInstructions"},
		Matches: []obs.Match{
			{CVE: "CVE-A", VDCFunc: "f", Pass: "GVN", Side: "removed", Chain: "boundscheck→add→constant(3)"},
			{CVE: "CVE-A", VDCFunc: "f", Pass: "GVN", Side: "added", Chain: ""},
			{CVE: "CVE-B", VDCFunc: "g", Pass: "RenumberInstructions"},
		},
	}}
	data, err := codec.Encode(cc)
	if err != nil {
		t.Fatalf("Encode refused a judged NoJIT record: %v", err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := back.(*cachedCompile)
	if got.Code != nil || !got.JitEligible || !reflect.DeepEqual(got.Decision, cc.Decision) {
		t.Errorf("decision round trip:\n got %+v\nwant %+v", got, cc)
	}

	// A go verdict is a decision too: it comes back empty, not absent.
	goCC := &cachedCompile{JitEligible: true, Code: &lir.Code{Ops: []lir.Op{{Kind: lir.KConst}}}}
	data, err = codec.Encode(goCC)
	if err != nil {
		t.Fatalf("Encode refused a go-verdict record: %v", err)
	}
	if back, err = codec.Decode(data); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d := back.(*cachedCompile).Decision; d.Verdict() != obs.VerdictGo || len(d.Matches) != 0 {
		t.Errorf("go verdict round trip: %+v", d)
	}
}

func TestCacheCodecRejections(t *testing.T) {
	codec := NewCacheCodec()

	if _, err := codec.Encode("not a cachedCompile"); err == nil {
		t.Error("Encode accepted a foreign value")
	}
	// Non-finite immediates must survive the trip bit-exactly — JSON can't
	// carry NaN, so Imm travels as IEEE-754 bits and a constant-folded NaN
	// (or ±Inf, or -0) must not demote the artifact to memory-only.
	nan := &cachedCompile{JitEligible: true, Code: &lir.Code{
		Ops: []lir.Op{
			{Kind: lir.KConst, Imm: math.NaN()},
			{Kind: lir.KConst, Dst: 1, Imm: math.Inf(-1)},
			{Kind: lir.KConst, Dst: 2, Imm: math.Copysign(0, -1)},
		},
	}}
	data, err := codec.Encode(nan)
	if err != nil {
		t.Fatalf("Encode refused a NaN immediate (should travel as IEEE-754 bits): %v", err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("Decode of non-finite immediates: %v", err)
	}
	for i, op := range back.(*cachedCompile).Code.Ops {
		got, want := math.Float64bits(op.Imm), math.Float64bits(nan.Code.Ops[i].Imm)
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
	if _, err := codec.Decode([]byte(`{"v":3,"decision":{}}`)); err == nil {
		t.Error("Decode accepted a record with neither artifact nor NoJIT")
	}
	// Layout 2: a well-formed NoJIT record of the engine's hand-copied form.
	if _, err := codec.Decode([]byte(`{"v":2,"decision":{"nojit":true},"jit_eligible":true}`)); err == nil {
		t.Error("Decode accepted a version-2 record")
	}
	// Layout 1: verdict flags beside the policy's own bytes.
	v1 := `{"v":1,"nojit":true,"disabled":["GVN"],"jit_eligible":true,` +
		`"verdict":{"matches":[{"cve":"CVE-A","vdc_func":"f","pass":"GVN","chain":"a→b","has_chain":true,"side":"removed"}],"names":["GVN"],"nojit":true}}`
	if _, err := codec.Decode([]byte(v1)); err == nil {
		t.Error("Decode accepted a version-1 record")
	}
}
