package main

// Back-end stages and executors, measured by direct calls on a fixed set
// of single-function numeric kernels. The engine runs these stages inside
// one opaque compile; here each is called on its own, in the engine's
// order (mirbuild → passes → lir.Lower → regalloc → lir.Fuse → mc.Lower →
// mc.Install → Release), so a slowdown in engine.compile.backend_ms can be
// pinned to one of them. The three executors then run the same compiled
// kernel and must agree bit for bit.

import (
	"fmt"
	"math"
	"time"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/mc"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/regalloc"
	"github.com/jitbull/jitbull/internal/value"
)

// stageKernels are the inner loops of the corpus benchmarks reduced to one
// self-contained numeric function each (no calls, no globals), so they can
// be compiled stage by stage and invoked at the executor boundary. They are
// dispatch-bound on purpose: dispatch is what the three executors differ
// in. Iteration counts give a few milliseconds per invocation.
var stageKernels = []struct {
	name string
	src  string
	args []float64
}{
	{"sum-loop", `function kernel(n) {
		var s = 0;
		for (var i = 0; i < n; i++) { s = s + i; }
		return s;
	}`, []float64{400000}},
	{"fib-shuffle", `function kernel(n) {
		var a = 0;
		var b = 1;
		for (var i = 0; i < n; i++) {
			var t = a + b;
			a = b;
			b = t;
		}
		return a;
	}`, []float64{360000}},
	{"nested-count", `function kernel(n, m) {
		var acc = 0;
		for (var i = 0; i < n; i++) {
			for (var j = 0; j < m; j++) { acc = acc + j; }
		}
		return acc;
	}`, []float64{5000, 80}},
	{"poly-eval", `function kernel(n) {
		var acc = 1;
		for (var i = 0; i < n; i++) {
			acc = acc * 1.0000001 + 0.5;
		}
		return acc;
	}`, []float64{360000}},
	{"array-sum", `function kernel(n, m) {
		var a = new Array(m);
		for (var i = 0; i < m; i++) { a[i] = i * 0.5; }
		var s = 0;
		for (var it = 0; it < n; it++) {
			for (var j = 0; j < m; j++) { s = s + a[j]; }
		}
		return s;
	}`, []float64{3600, 100}},
	{"ring-queue", `function kernel(n, m) {
		var q = new Array(m);
		for (var i = 0; i < m; i++) { q[i] = i; }
		var head = 0;
		var acc = 0;
		for (var it = 0; it < n; it++) {
			var v = q[head];
			q[head] = v + 1;
			head = head + 1;
			if (head == m) { head = 0; }
			acc = acc + v;
		}
		return acc;
	}`, []float64{280000, 64}},
}

// kernelHooks is the minimal native.Hooks of a self-contained kernel.
type kernelHooks struct{ arena *heap.Arena }

func (k *kernelHooks) Arena() *heap.Arena         { return k.arena }
func (k *kernelHooks) GlobalGet(int) value.Value  { return value.Undef() }
func (k *kernelHooks) GlobalSet(int, value.Value) {}
func (k *kernelHooks) Random() float64            { return 0.5 }
func (k *kernelHooks) CallFunction(int, []value.Value) (value.Value, error) {
	return value.Undef(), fmt.Errorf("stage kernels must not call")
}

// stageTotals accumulates time and work per stage over all kernels and
// repetitions.
type stageTotals struct {
	mirbuild, lower, regalloc, fuse, mcLower, install, release time.Duration
	switchNs, fusedNs, mcNs                                    time.Duration

	compiles   int // kernel compilations timed (kernels × reps)
	instrs     int // MIR instructions built, per compilation set
	ops        int // LIR ops lowered
	numRegs    int // registers after allocation
	supers     int // superinstructions emitted
	fusedOps   int // source ops absorbed into them
	codeBytes  int // machine-code bytes emitted
	steps      int64
	mismatches []string
}

const kernelBudget = int64(1) << 60

// measureStages compiles every kernel compileReps times stage by stage,
// then executes it execReps times on each executor (keeping the fastest
// run of each, since the work is fixed).
func measureStages(compileReps, execReps int) (*stageTotals, error) {
	t := &stageTotals{}
	for _, k := range stageKernels {
		astProg, err := parser.Parse(k.src)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		prog, err := compiler.CompileProgram(astProg)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		var code *lir.Code
		var unit *mc.Unit
		for r := 0; r < compileReps; r++ {
			last := r == compileReps-1
			if code, unit, err = t.compileKernel(prog, astProg.Funcs()[0], last); err != nil {
				return nil, fmt.Errorf("kernel %s: %w", k.name, err)
			}
		}
		if err := t.execKernel(k.name, code, unit, k.args, execReps); err != nil {
			return nil, err
		}
		if unit != nil {
			start := time.Now()
			if err := unit.Release(); err != nil {
				return nil, fmt.Errorf("kernel %s: release: %w", k.name, err)
			}
			t.release += time.Since(start)
		}
	}
	return t, nil
}

// compileKernel runs the production back end once. Counts are taken on the
// last repetition only (they are the same every time); that repetition's
// machine-code unit is kept installed for the executors, the others are
// released at once, timed.
func (t *stageTotals) compileKernel(prog *bytecode.Program, fd *ast.FuncDecl, last bool) (*lir.Code, *mc.Unit, error) {
	params := make([]value.Type, len(fd.Params))
	for i := range params {
		params[i] = value.Number
	}
	start := time.Now()
	g, err := mirbuild.Build(prog, fd, mirbuild.Options{
		ParamTypes: params,
		GlobalType: func(int) value.Type { return value.Number },
		ReturnType: func(int) value.Type { return value.Number },
	})
	t.mirbuild += time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	instrs := g.InstrCount()
	if err := passes.RunWith(g, passes.RunOptions{}); err != nil {
		return nil, nil, err
	}

	start = time.Now()
	code, err := lir.Lower(g)
	t.lower += time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	err = regalloc.AllocateWith(code, nil)
	t.regalloc += time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	code.Fused = lir.Fuse(code)
	t.fuse += time.Since(start)

	start = time.Now()
	mprog, err := mc.Lower(code)
	t.mcLower += time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	t.compiles++
	if last {
		t.instrs += instrs
		t.ops += len(code.Ops)
		t.numRegs += code.NumRegs
		t.supers += code.Fused.Supers
		t.fusedOps += code.Fused.FusedSrcOps
		t.codeBytes += len(mprog.Buf)
	}
	if !mc.Supported() {
		return code, nil, nil
	}
	start = time.Now()
	unit, err := mc.Install(mprog)
	t.install += time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	if last {
		return code, unit, nil
	}
	start = time.Now()
	err = unit.Release()
	t.release += time.Since(start)
	return code, nil, err
}

// execKernel runs one compiled kernel on the switch loop, the fused
// threaded executor and machine code, and checks results and steps
// bit-identical across the three.
func (t *stageTotals) execKernel(name string, code *lir.Code, unit *mc.Unit, fargs []float64, reps int) error {
	args := make([]value.Value, len(fargs))
	for i, a := range fargs {
		args[i] = value.Num(a)
	}
	type executor struct {
		name  string
		total *time.Duration
		exec  func(h native.Hooks, pool *native.Pool) (native.Result, native.Status, error)
	}
	executors := []executor{
		{"switch", &t.switchNs, func(h native.Hooks, pool *native.Pool) (native.Result, native.Status, error) {
			return native.ExecUnfused(code, args, h, kernelBudget, pool)
		}},
		{"fused", &t.fusedNs, func(h native.Hooks, pool *native.Pool) (native.Result, native.Status, error) {
			return native.Exec(code, args, h, kernelBudget, pool)
		}},
	}
	if unit != nil {
		executors = append(executors, executor{"mc", &t.mcNs, func(h native.Hooks, pool *native.Pool) (native.Result, native.Status, error) {
			return unit.Exec(args, h, kernelBudget, pool)
		}})
	}
	var pool native.Pool
	var ref native.Result
	for i, ex := range executors {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			h := &kernelHooks{arena: heap.New(1 << 16)}
			start := time.Now()
			res, status, err := ex.exec(h, &pool)
			d := time.Since(start)
			if err != nil || status != native.StatusOK {
				return fmt.Errorf("kernel %s on %s: status %v err %v", name, ex.name, status, err)
			}
			if d < best {
				best = d
			}
			if i == 0 && r == 0 {
				ref = res
			} else if res.Kind != ref.Kind || math.Float64bits(res.Val) != math.Float64bits(ref.Val) || res.Steps != ref.Steps {
				t.mismatches = append(t.mismatches, fmt.Sprintf("%s: %s %+v vs switch %+v", name, ex.name, res, ref))
			}
		}
		*ex.total += best
	}
	t.steps += ref.Steps
	return nil
}

// metrics renders the totals. Per-op stage costs divide by the work of one
// compilation set times the repetitions; on a platform without the
// machine-code tier the install, release and mc.exec lines are zero, which
// the report prints as absent.
func (t *stageTotals) metrics(m map[string]float64) {
	reps := int64(t.compiles / len(stageKernels))
	m["mirbuild.ns_per_instr"] = ratio(float64(t.mirbuild), float64(int64(t.instrs)*reps))
	m["mirbuild.instrs"] = float64(t.instrs)
	m["lir.lower.ns_per_op"] = ratio(float64(t.lower), float64(int64(t.ops)*reps))
	m["lir.ops"] = float64(t.ops)
	m["regalloc.ns_per_op"] = ratio(float64(t.regalloc), float64(int64(t.ops)*reps))
	m["regalloc.num_regs"] = float64(t.numRegs)
	m["lir.fuse.ns_per_op"] = ratio(float64(t.fuse), float64(int64(t.ops)*reps))
	m["lir.fuse.supers"] = float64(t.supers)
	m["lir.fuse.fused_ops"] = float64(t.fusedOps)
	m["mc.lower.ns_per_op"] = ratio(float64(t.mcLower), float64(int64(t.ops)*reps))
	m["mc.code_bytes"] = float64(t.codeBytes)
	m["mc.install.us_per_unit"] = ratio(float64(t.install)/1e3, float64(t.compiles))
	m["mc.release.us_per_unit"] = ratio(float64(t.release)/1e3, float64(t.compiles))
	m["native.switch.ns_per_step"] = ratio(float64(t.switchNs), float64(t.steps))
	m["native.fused.ns_per_step"] = ratio(float64(t.fusedNs), float64(t.steps))
	m["mc.exec.ns_per_step"] = ratio(float64(t.mcNs), float64(t.steps))
	m["native.kernel_steps"] = float64(t.steps)
}
