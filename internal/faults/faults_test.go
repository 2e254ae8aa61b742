package faults

import (
	"errors"
	"reflect"
	"testing"
)

func TestInjectorDeterministic(t *testing.T) {
	rules := []Rule{
		{Point: PointPass, Kind: KindError, Probability: 0.5},
		{Point: PointNative, Kind: KindPanic, AfterHits: 2, Times: 1},
	}
	sequence := func() []Fault {
		in := NewInjector(42, rules...)
		for i := 0; i < 200; i++ {
			in.roll(PointPass, "GVN")
			in.roll(PointNative, "f")
		}
		return in.Fired()
	}
	a, b := sequence(), sequence()
	if len(a) == 0 {
		t.Fatal("no faults fired over 200 hits with p=0.5")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault sequences:\n%v\n%v", a, b)
	}
	in := NewInjector(43, rules...)
	for i := 0; i < 200; i++ {
		in.roll(PointPass, "GVN")
		in.roll(PointNative, "f")
	}
	if reflect.DeepEqual(a, in.Fired()) {
		t.Fatal("different seeds produced identical probabilistic sequences")
	}
}

func TestAfterHitsAndTimes(t *testing.T) {
	in := NewInjector(1, Rule{Point: PointLower, Kind: KindError, AfterHits: 3, Times: 2})
	var fired []int
	for hit := 1; hit <= 10; hit++ {
		if _, ok := in.roll(PointLower, ""); ok {
			fired = append(fired, hit)
		}
	}
	if !reflect.DeepEqual(fired, []int{4, 5}) {
		t.Fatalf("fired at hits %v, want [4 5]", fired)
	}
	if in.FiredCount() != 2 {
		t.Fatalf("FiredCount = %d, want 2", in.FiredCount())
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	in := NewInjector(7, Rule{Point: PointPass, Kind: KindError, Probability: 0.5})
	for i := 0; i < 1000; i++ {
		in.roll(PointPass, "")
	}
	n := in.FiredCount()
	if n < 350 || n > 650 {
		t.Fatalf("p=0.5 fired %d of 1000 times", n)
	}
}

func TestCheckKinds(t *testing.T) {
	in := NewInjector(1,
		Rule{Point: PointDBSave, Kind: KindError, Times: 1},
		Rule{Point: PointDBLoad, Kind: KindStall, Times: 1},
		Rule{Point: PointNative, Kind: KindPanic, Times: 1},
	)
	if err := in.Check(PointDBSave, "db.json"); !IsInjected(err) {
		t.Fatalf("error kind: got %v", err)
	}
	err := in.Check(PointDBLoad, "db.json")
	var ie *InjectedError
	if !errors.As(err, &ie) || !ie.Stalled {
		t.Fatalf("stall at meterless point should degrade to a stalled error, got %v", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic kind did not panic")
			}
			if _, ok := FromPanic(r); !ok {
				t.Fatalf("panic value is not an *InjectedPanic: %v", r)
			}
		}()
		in.Check(PointNative, "f")
	}()
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	if err := in.Check(PointPass, "x"); err != nil {
		t.Fatal(err)
	}
	if in.FiredCount() != 0 || in.Fired() != nil {
		t.Fatal("nil injector recorded faults")
	}
	var c *CompileCtx
	if err := c.Step(PointPass, "x", 100); err != nil {
		t.Fatal(err)
	}
	var m *Meter
	if err := m.Charge(1 << 60); err != nil {
		t.Fatal(err)
	}
}

func TestMeterBudget(t *testing.T) {
	m := &Meter{Limit: 10}
	if err := m.Charge(10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := m.Charge(1)
	if !errors.Is(err, ErrCompileBudget) {
		t.Fatalf("over budget: got %v", err)
	}
	c := &CompileCtx{Meter: &Meter{Limit: 5}}
	if err := c.Step(PointPass, "GVN", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(PointPass, "LICM", 4); !errors.Is(err, ErrCompileBudget) {
		t.Fatalf("ctx over budget: got %v", err)
	}
}

func TestStallExhaustsMeter(t *testing.T) {
	c := &CompileCtx{
		Inj:   NewInjector(1, Rule{Point: PointPass, Kind: KindStall}),
		Meter: &Meter{Limit: 1000},
	}
	err := c.Step(PointPass, "GVN", 1)
	var ie *InjectedError
	if !errors.As(err, &ie) || !ie.Stalled {
		t.Fatalf("got %v", err)
	}
	if c.Meter.Used != c.Meter.Limit {
		t.Fatalf("stall left budget: used %d of %d", c.Meter.Used, c.Meter.Limit)
	}
}

func TestParseRuleRoundTrip(t *testing.T) {
	for _, s := range []string{"pass:panic:0.5:2:1", "native:error:0.25:0:0", "mirbuild:stall:1:0:3"} {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		r2, err := ParseRule(r.String())
		if err != nil || r2 != r {
			t.Fatalf("round trip %s -> %s -> %+v (%v)", s, r.String(), r2, err)
		}
	}
	if r, err := ParseRule("lir:panic"); err != nil || r.Point != PointLower || r.Kind != KindPanic {
		t.Fatalf("short form: %+v, %v", r, err)
	}
	for _, bad := range []string{"", "pass", "pass:explode", "nowhere:error", "pass:error:x", "store.manifest:error", "store.get:error", "pass:bit-flip"} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(99, 3, nil)
	b := RandomPlan(99, 3, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	if len(a.Rules) < 1 || len(a.Rules) > 3 {
		t.Fatalf("rule count %d out of [1,3]", len(a.Rules))
	}
	seen := map[string]bool{}
	for s := int64(0); s < 50; s++ {
		seen[RandomPlan(s, 3, nil).String()] = true
	}
	if len(seen) < 40 {
		t.Fatalf("only %d distinct plans over 50 seeds", len(seen))
	}
}
