// Package mirbuild constructs MIR (internal/mir) from a function's AST,
// using on-the-fly SSA construction (Braun et al., "Simple and Efficient
// Construction of Static Single Assignment Form") with sealed blocks and
// incomplete phis.
//
// The builder is type-speculative, like WarpBuilder/IonBuilder: parameter
// and global types observed by the profiling interpreter tier decide the
// unbox/guard instructions emitted. Functions using features outside the
// JIT-able subset (strings, typeof, print, mixed types...) fail to build
// with ErrUnsupported and simply stay on the interpreter tier.
package mirbuild

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/token"
	"github.com/jitbull/jitbull/internal/value"
)

// ErrUnsupported marks functions outside the JIT-able subset; the engine
// keeps them on the interpreter tier.
var ErrUnsupported = errors.New("not JIT-able")

func unsupportedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// Options supplies the type speculation inputs gathered by the profiling
// tier.
type Options struct {
	// ParamTypes holds the observed type of each parameter.
	ParamTypes []value.Type
	// GlobalType reports the current type of a global slot.
	GlobalType func(slot int) value.Type
	// ReturnType reports the observed return type of a function index.
	ReturnType func(fnIdx int) value.Type
	// Faults is the compile supervisor's context (step budget + fault
	// injection); nil is valid and free.
	Faults *faults.CompileCtx

	// OSR marks loop headers with OpOSREntry frame maps (locals → MIR
	// values) so the engine can transfer mid-loop into native code.
	// Speculate emits OpSnapshot frame maps after eligible call-assignment
	// statements so the TypeSpeculation pass can turn calls into guarded
	// OpCallSpec. Both default off, in which case the built MIR is
	// bit-identical to a build without the feature.
	OSR       bool
	Speculate bool
}

// Build compiles fd into a fresh MIR graph. prog supplies name resolution
// (global slots and function indices) and must be the bytecode program the
// interpreter runs.
func Build(prog *bytecode.Program, fd *ast.FuncDecl, opts Options) (*mir.Graph, error) {
	sp := opts.Faults.Span(obs.CatCompile, "mirbuild")
	if opts.Faults != nil {
		if err := opts.Faults.Step(faults.PointMIRBuild, fd.Name, int64(1+len(fd.Body.Stmts))); err != nil {
			sp.EndErr(err)
			return nil, err
		}
	}
	fnIdx, ok := prog.FuncByName[fd.Name]
	if !ok {
		err := fmt.Errorf("function %q not in program", fd.Name)
		sp.EndErr(err)
		return nil, err
	}
	if len(opts.ParamTypes) < len(fd.Params) {
		err := unsupportedf("missing type feedback for %q", fd.Name)
		sp.EndErr(err)
		return nil, err
	}
	globalSlots := make(map[string]int, len(prog.GlobalNames))
	for i, n := range prog.GlobalNames {
		globalSlots[n] = i
	}
	b := &builder{
		prog:        prog,
		fd:          fd,
		opts:        opts,
		g:           mir.NewGraph(fd.Name, fnIdx, len(fd.Params)),
		globalSlots: globalSlots,
		currentDef:  map[string]map[*mir.Block]*mir.Instr{},
		sealed:      map[*mir.Block]bool{},
		incomplete:  map[*mir.Block]map[string]*mir.Instr{},
		locals:      map[string]bool{},
	}
	if err := b.build(); err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.End(obs.I("instrs", int64(b.g.InstrCount())))
	return b.g, nil
}

type builder struct {
	prog        *bytecode.Program
	fd          *ast.FuncDecl
	opts        Options
	g           *mir.Graph
	globalSlots map[string]int

	cur        *mir.Block
	terminated bool // current block already ended in return/break/continue

	// Braun SSA state.
	currentDef map[string]map[*mir.Block]*mir.Instr
	sealed     map[*mir.Block]bool
	incomplete map[*mir.Block]map[string]*mir.Instr

	locals map[string]bool // param + hoisted var names (function scope)

	// slotNames lists the locals in bytecode slot order (params first, then
	// hoisted vars in first-encounter walk order) — the same assignment the
	// bytecode compiler performs, so OSR/deopt frame maps index interpreter
	// frames correctly.
	slotNames []string
	// loopOrd/specOrd number loop statements and speculation sites in
	// lockstep with the bytecode compiler's identical counters.
	loopOrd int
	specOrd int

	// Loop context stack for break/continue.
	loops []*loopBlocks
}

type loopBlocks struct {
	continueTarget *mir.Block
	exit           *mir.Block
}

func (b *builder) build() error {
	entry := b.g.NewBlock()
	b.sealed[entry] = true
	b.cur = entry

	// Hoist locals (params + every var declared anywhere in the body),
	// recording slot order exactly as the bytecode compiler assigns it.
	for _, p := range b.fd.Params {
		b.locals[p] = true
	}
	b.slotNames = append(b.slotNames, b.fd.Params...)
	ast.Walk(b.fd.Body, func(n ast.Node) bool {
		if vd, ok := n.(*ast.VarDecl); ok {
			for _, name := range vd.Names {
				if !b.locals[name] {
					b.locals[name] = true
					b.slotNames = append(b.slotNames, name)
				}
			}
		}
		return true
	})

	// Parameters: emit parameter + unbox according to observed types.
	for i, p := range b.fd.Params {
		param := b.g.NewInstr(mir.OpParameter, mir.TypeValue)
		param.Aux = i
		b.cur.Append(param)
		var unboxed *mir.Instr
		switch b.opts.ParamTypes[i] {
		case value.Number, value.Boolean:
			unboxed = b.g.NewInstr(mir.OpUnbox, mir.TypeDouble, param)
		case value.Array:
			unboxed = b.g.NewInstr(mir.OpUnbox, mir.TypeObject, param)
		default:
			return unsupportedf("parameter %q has observed type %s", p, b.opts.ParamTypes[i])
		}
		b.cur.Append(unboxed)
		b.writeVar(p, b.cur, unboxed)
	}

	if err := b.stmt(b.fd.Body); err != nil {
		return err
	}
	if !b.terminated {
		b.cur.Append(b.g.NewInstr(mir.OpReturnUndef, mir.TypeNone))
	}
	b.g.PruneUnreachable()
	if err := b.finalizeTypes(); err != nil {
		return err
	}
	b.g.BuildDominators()
	if errs := b.g.Verify(); len(errs) > 0 {
		return fmt.Errorf("mirbuild produced invalid graph for %s: %v", b.fd.Name, errs)
	}
	return nil
}

// finalizeTypes resolves the types of loop phis by fixpoint and then
// type-checks every instruction's operands. Functions that mix arrays and
// numbers in one SSA value are rejected as not JIT-able.
func (b *builder) finalizeTypes() error {
	for changed := true; changed; {
		changed = false
		for _, blk := range b.g.Blocks {
			for _, in := range blk.Instrs {
				if in.Dead || in.Op != mir.OpPhi {
					continue
				}
				t := in.Type
				for _, op := range in.Operands {
					if op == in || op.Type == mir.TypeNone {
						continue
					}
					t = unifyTypes(t, op.Type)
				}
				if t != in.Type {
					in.Type = t
					changed = true
				}
			}
		}
	}
	for _, blk := range b.g.Blocks {
		for _, in := range blk.Instrs {
			if in.Dead {
				continue
			}
			if in.Op == mir.OpPhi {
				if in.Type == mir.TypeValue {
					return unsupportedf("phi %d mixes arrays and numbers", in.ID)
				}
				if in.Type == mir.TypeNone {
					in.Type = mir.TypeDouble // degenerate phi (dead loop)
				}
				continue
			}
			if err := checkOperandTypes(in); err != nil {
				return err
			}
		}
	}
	return nil
}

func unifyTypes(a, t mir.Type) mir.Type {
	switch {
	case a == mir.TypeNone:
		return t
	case a == t:
		return a
	case isNumeric(a) && isNumeric(t):
		return mir.TypeDouble
	default:
		return mir.TypeValue
	}
}

// checkOperandTypes validates operand types for ops whose operands could
// have been untyped phis during construction.
func checkOperandTypes(in *mir.Instr) error {
	numeric := func(o *mir.Instr, what string) error {
		if !isNumeric(o.Type) {
			return unsupportedf("instr %d (%s): %s operand has type %s, need number", in.ID, in.Op, what, o.Type)
		}
		return nil
	}
	object := func(o *mir.Instr, what string) error {
		if o.Type != mir.TypeObject {
			return unsupportedf("instr %d (%s): %s operand has type %s, need array", in.ID, in.Op, what, o.Type)
		}
		return nil
	}
	switch in.Op {
	case mir.OpAdd, mir.OpSub, mir.OpMul, mir.OpDiv, mir.OpMod, mir.OpPow,
		mir.OpBitAnd, mir.OpBitOr, mir.OpBitXor, mir.OpShl, mir.OpShr, mir.OpUshr,
		mir.OpCompare, mir.OpMathFunc, mir.OpNeg, mir.OpNot, mir.OpTest, mir.OpNewArray:
		for _, op := range in.Operands {
			if err := numeric(op, "numeric"); err != nil {
				return err
			}
		}
	case mir.OpElements, mir.OpAddrOf, mir.OpArrayPop:
		return object(in.Operands[0], "array")
	case mir.OpBoundsCheck:
		if err := numeric(in.Operands[0], "index"); err != nil {
			return err
		}
		return numeric(in.Operands[1], "length")
	case mir.OpLoadElement:
		return numeric(in.Operands[1], "index")
	case mir.OpStoreElement:
		if err := numeric(in.Operands[1], "index"); err != nil {
			return err
		}
		return numeric(in.Operands[2], "value")
	case mir.OpSetLength, mir.OpArrayPush:
		if err := object(in.Operands[0], "array"); err != nil {
			return err
		}
		return numeric(in.Operands[1], "value")
	case mir.OpReturn, mir.OpStoreGlobal, mir.OpCall:
		for _, op := range in.Operands {
			if op.Type != mir.TypeObject && !isNumeric(op.Type) {
				return unsupportedf("instr %d (%s): operand type %s", in.ID, in.Op, op.Type)
			}
		}
	}
	return nil
}

// ---- SSA plumbing ----

func (b *builder) writeVar(name string, blk *mir.Block, v *mir.Instr) {
	m := b.currentDef[name]
	if m == nil {
		m = map[*mir.Block]*mir.Instr{}
		b.currentDef[name] = m
	}
	m[blk] = v
}

func (b *builder) readVar(name string, blk *mir.Block) *mir.Instr {
	if v, ok := b.currentDef[name][blk]; ok {
		return v
	}
	return b.readVarRecursive(name, blk)
}

func (b *builder) readVarRecursive(name string, blk *mir.Block) *mir.Instr {
	var v *mir.Instr
	switch {
	case !b.sealed[blk]:
		phi := b.g.NewInstr(mir.OpPhi, mir.TypeNone)
		blk.AddPhi(phi)
		if b.incomplete[blk] == nil {
			b.incomplete[blk] = map[string]*mir.Instr{}
		}
		b.incomplete[blk][name] = phi
		v = phi
	case len(blk.Preds) == 0:
		// Reading a variable never assigned on this path: JS yields
		// undefined; in the numeric JIT subset this is a NaN constant.
		c := b.g.NewInstr(mir.OpConstant, mir.TypeDouble)
		c.Num = nan()
		blk.AddPhi(c) // prepend so it precedes any control instruction
		v = c
	case len(blk.Preds) == 1:
		v = b.readVar(name, blk.Preds[0])
	default:
		phi := b.g.NewInstr(mir.OpPhi, mir.TypeNone)
		blk.AddPhi(phi)
		b.writeVar(name, blk, phi)
		v = b.addPhiOperands(name, phi)
	}
	b.writeVar(name, blk, v)
	return v
}

func (b *builder) addPhiOperands(name string, phi *mir.Instr) *mir.Instr {
	blk := phi.Block
	for _, pred := range blk.Preds {
		phi.Operands = append(phi.Operands, b.readVar(name, pred))
	}
	b.unifyPhiType(phi)
	return b.tryRemoveTrivialPhi(phi)
}

func (b *builder) unifyPhiType(phi *mir.Instr) {
	t := mir.TypeNone
	for _, op := range phi.Operands {
		if op == phi || op.Type == mir.TypeNone {
			// Self-references and not-yet-typed loop phis carry no type
			// information; finalizeTypes resolves them by fixpoint.
			continue
		}
		ot := op.Type
		switch {
		case t == mir.TypeNone:
			t = ot
		case t == ot:
		case t == mir.TypeBoolean && ot == mir.TypeDouble,
			t == mir.TypeDouble && ot == mir.TypeBoolean:
			t = mir.TypeDouble
		default:
			t = mir.TypeValue // mixed; consumers will reject
		}
	}
	phi.Type = t
}

func (b *builder) tryRemoveTrivialPhi(phi *mir.Instr) *mir.Instr {
	var same *mir.Instr
	for _, op := range phi.Operands {
		if op == phi || op == same {
			continue
		}
		if same != nil {
			return phi // not trivial
		}
		same = op
	}
	if same == nil {
		return phi // unreachable phi referencing only itself
	}
	// Collect phi users before rewriting.
	var phiUsers []*mir.Instr
	for _, blk := range b.g.Blocks {
		for _, in := range blk.Instrs {
			if in == phi {
				continue
			}
			for _, op := range in.Operands {
				if op == phi {
					phiUsers = append(phiUsers, in)
					break
				}
			}
		}
	}
	b.g.ReplaceUses(phi, same)
	phi.Dead = true
	removeFromBlock(phi)
	// Rewire variable definitions that pointed at the phi.
	for _, m := range b.currentDef {
		for blk, def := range m {
			if def == phi {
				m[blk] = same
			}
		}
	}
	for _, u := range phiUsers {
		if u.Op == mir.OpPhi && !u.Dead {
			b.tryRemoveTrivialPhi(u)
		}
	}
	return same
}

func removeFromBlock(in *mir.Instr) {
	blk := in.Block
	for i, x := range blk.Instrs {
		if x == in {
			blk.Instrs = append(blk.Instrs[:i], blk.Instrs[i+1:]...)
			return
		}
	}
}

func (b *builder) sealBlock(blk *mir.Block) {
	if b.sealed[blk] {
		return
	}
	b.sealed[blk] = true
	// Completing a φ can create and remove other φs, so the order decides
	// instruction numbering and which trivial φs survive: complete in name
	// order, not map order, or the same source compiles differently from
	// run to run.
	pending := b.incomplete[blk]
	names := make([]string, 0, len(pending))
	for name := range pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.addPhiOperands(name, pending[name])
	}
	delete(b.incomplete, blk)
}

func nan() float64 { return math.NaN() }

// ---- control-flow helpers ----

func (b *builder) gotoBlock(to *mir.Block) {
	b.cur.Append(b.g.NewInstr(mir.OpGoto, mir.TypeNone))
	mir.AddEdge(b.cur, to)
}

func (b *builder) branch(cond *mir.Instr, ifTrue, ifFalse *mir.Block) {
	b.cur.Append(b.g.NewInstr(mir.OpTest, mir.TypeNone, cond))
	mir.AddEdge(b.cur, ifTrue)
	mir.AddEdge(b.cur, ifFalse)
}

func (b *builder) startBlock(blk *mir.Block) {
	b.cur = blk
	b.terminated = false
}

// emit appends an instruction to the current block.
func (b *builder) emit(in *mir.Instr) *mir.Instr { return b.cur.Append(in) }

// ---- statements ----

func (b *builder) stmt(s ast.Stmt) error {
	if b.terminated {
		// Unreachable code after return/break/continue: skip, but keep the
		// ordinal counters in lockstep — the bytecode compiler emits (and
		// numbers) unreachable statements.
		b.countOrdinals(s)
		return nil
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			if err := b.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *ast.VarDecl:
		for i, name := range s.Names {
			if s.Inits[i] == nil {
				continue
			}
			v, err := b.expr(s.Inits[i])
			if err != nil {
				return err
			}
			if err := b.assignName(name, v); err != nil {
				return err
			}
			b.maybeSnapshot(name, s.Inits[i], v)
		}
		return nil
	case *ast.ExprStmt:
		v, err := b.expr(s.X)
		if err != nil {
			return err
		}
		if x, ok := s.X.(*ast.AssignExpr); ok {
			if t, ok := x.Target.(*ast.Ident); ok && x.Op == token.Assign {
				// Statement-level `x = f(...)` only: deoptimization resumes
				// at statement boundaries, so nested assignment expressions
				// are deliberately not speculation sites (same rule as the
				// bytecode compiler).
				b.maybeSnapshot(t.Name, x.Value, v)
			}
		}
		return nil
	case *ast.ReturnStmt:
		if s.Value == nil {
			b.emit(b.g.NewInstr(mir.OpReturnUndef, mir.TypeNone))
		} else {
			v, err := b.expr(s.Value)
			if err != nil {
				return err
			}
			b.emit(b.g.NewInstr(mir.OpReturn, mir.TypeNone, v))
		}
		b.terminated = true
		return nil
	case *ast.IfStmt:
		return b.ifStmt(s)
	case *ast.WhileStmt:
		return b.loop(nil, s.Cond, nil, s.Body, false)
	case *ast.DoWhileStmt:
		return b.loop(nil, s.Cond, nil, s.Body, true)
	case *ast.ForStmt:
		return b.loop(s.Init, s.Cond, s.Post, s.Body, false)
	case *ast.BreakStmt:
		if len(b.loops) == 0 {
			return unsupportedf("break outside loop")
		}
		b.gotoBlock(b.loops[len(b.loops)-1].exit)
		b.terminated = true
		return nil
	case *ast.ContinueStmt:
		if len(b.loops) == 0 {
			return unsupportedf("continue outside loop")
		}
		b.gotoBlock(b.loops[len(b.loops)-1].continueTarget)
		b.terminated = true
		return nil
	default:
		return unsupportedf("statement %T", s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) error {
	cond, err := b.expr(s.Cond)
	if err != nil {
		return err
	}
	thenB := b.g.NewBlock()
	elseB := b.g.NewBlock()
	b.branch(cond, thenB, elseB)
	b.sealed[thenB] = true
	b.sealed[elseB] = true

	join := b.g.NewBlock()
	b.startBlock(thenB)
	if err := b.stmt(s.Then); err != nil {
		return err
	}
	thenReaches := !b.terminated
	if thenReaches {
		b.gotoBlock(join)
	}
	b.startBlock(elseB)
	if s.Else != nil {
		if err := b.stmt(s.Else); err != nil {
			return err
		}
	}
	elseReaches := !b.terminated
	if elseReaches {
		b.gotoBlock(join)
	}
	b.sealBlock(join)
	if !thenReaches && !elseReaches {
		b.terminated = true
		b.cur = join // dead block; will be pruned
		return nil
	}
	b.startBlock(join)
	return nil
}

// loop builds while / do-while / for loops. For do-while, bodyFirst is
// true (the body executes before the first condition check).
func (b *builder) loop(init ast.Stmt, cond ast.Expr, post ast.Expr, body ast.Stmt, bodyFirst bool) error {
	if init != nil {
		if err := b.stmt(init); err != nil {
			return err
		}
	}
	// Consume this loop statement's ordinal (do-while included, matching
	// the compiler's numbering) before descending into nested loops.
	loopOrd := b.loopOrd
	b.loopOrd++

	header := b.g.NewBlock() // loop header: condition re-evaluation point
	exit := b.g.NewBlock()
	bodyB := b.g.NewBlock()

	b.gotoBlock(header)
	// header is unsealed until the back edge is added.
	b.startBlock(header)
	if bodyFirst {
		// do-while: header is the body start itself; we model it as
		// header -> body unconditionally, condition checked at the latch.
		// No OSR entry: the bytecode back edge is a conditional jump the
		// interpreter's OSR hook does not watch.
		b.gotoBlock(bodyB)
	} else {
		if b.opts.OSR {
			// OSR entry point: the frame map reads every local at the top
			// of the header (unsealed, so reads become loop phis merged
			// over the back edge), in bytecode slot order.
			entry := b.g.NewInstr(mir.OpOSREntry, mir.TypeNone)
			entry.Aux = loopOrd
			for _, name := range b.slotNames {
				entry.Operands = append(entry.Operands, b.readVar(name, header))
			}
			b.emit(entry)
		}
		var c *mir.Instr
		var err error
		if cond != nil {
			c, err = b.expr(cond)
			if err != nil {
				return err
			}
		} else {
			c = b.constant(1)
		}
		b.branch(c, bodyB, exit)
	}
	b.sealed[bodyB] = true

	latch := b.g.NewBlock() // continue target: post expression + back edge
	b.loops = append(b.loops, &loopBlocks{continueTarget: latch, exit: exit})
	b.startBlock(bodyB)
	if err := b.stmt(body); err != nil {
		return err
	}
	if !b.terminated {
		b.gotoBlock(latch)
	}
	b.loops = b.loops[:len(b.loops)-1]

	b.sealBlock(latch)
	b.startBlock(latch)
	if post != nil {
		if _, err := b.expr(post); err != nil {
			return err
		}
	}
	if bodyFirst {
		c, err := b.expr(cond)
		if err != nil {
			return err
		}
		b.branch(c, header, exit)
	} else {
		b.gotoBlock(header)
	}
	b.sealBlock(header)
	b.sealBlock(exit)
	b.startBlock(exit)
	return nil
}

// ---- OSR / speculation sites ----

// specEligible mirrors the bytecode compiler's predicate for speculation
// sites: a direct call to a declared nanojs function assigned to a local.
// Keeping the predicates identical keeps the two sides' ordinal numbering in
// lockstep without sharing any state.
func (b *builder) specEligible(name string, v ast.Expr) bool {
	if v == nil || !b.locals[name] {
		return false
	}
	call, ok := v.(*ast.CallExpr)
	if !ok {
		return false
	}
	callee, ok := call.Callee.(*ast.Ident)
	if !ok {
		return false
	}
	_, declared := b.prog.FuncByName[callee.Name]
	return declared
}

// maybeSnapshot records a speculation site after a statement-level
// call-assignment: the ordinal is always consumed (compiler parity); the
// OpSnapshot frame map — [assigned value, locals in slot order] — is only
// emitted when speculation is enabled.
func (b *builder) maybeSnapshot(name string, init ast.Expr, v *mir.Instr) {
	if !b.specEligible(name, init) {
		return
	}
	ord := b.specOrd
	b.specOrd++
	if !b.opts.Speculate {
		return
	}
	snap := b.g.NewInstr(mir.OpSnapshot, mir.TypeNone)
	snap.Num = float64(ord + 1) // +1: zero means "no ordinal"
	snap.Operands = append(snap.Operands, v)
	for _, n := range b.slotNames {
		snap.Operands = append(snap.Operands, b.readVar(n, b.cur))
	}
	b.emit(snap)
}

// countOrdinals walks an unreachable statement, consuming the loop and
// speculation ordinals the bytecode compiler (which emits dead code) would
// consume, so later reachable sites stay aligned.
func (b *builder) countOrdinals(s ast.Stmt) {
	if s == nil {
		return
	}
	ast.Walk(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.WhileStmt, *ast.DoWhileStmt, *ast.ForStmt:
			b.loopOrd++
		case *ast.VarDecl:
			for i, name := range n.Names {
				if b.specEligible(name, n.Inits[i]) {
					b.specOrd++
				}
			}
		case *ast.ExprStmt:
			if x, ok := n.X.(*ast.AssignExpr); ok {
				if t, ok := x.Target.(*ast.Ident); ok && x.Op == token.Assign &&
					b.specEligible(t.Name, x.Value) {
					b.specOrd++
				}
			}
		}
		return true
	})
}

// ---- expressions ----

func (b *builder) constant(v float64) *mir.Instr {
	c := b.g.NewInstr(mir.OpConstant, mir.TypeDouble)
	c.Num = v
	return b.emit(c)
}

func (b *builder) requireDouble(v *mir.Instr, what string) (*mir.Instr, error) {
	switch v.Type {
	case mir.TypeDouble, mir.TypeBoolean:
		return v, nil
	case mir.TypeNone:
		if v.Op == mir.OpPhi {
			// Incomplete loop phi: its type is resolved by finalizeTypes.
			return v, nil
		}
	}
	return nil, unsupportedf("%s has type %s, need number", what, v.Type)
}

func (b *builder) requireObject(v *mir.Instr, what string) (*mir.Instr, error) {
	if v.Type == mir.TypeObject || (v.Type == mir.TypeNone && v.Op == mir.OpPhi) {
		return v, nil
	}
	return nil, unsupportedf("%s has type %s, need array", what, v.Type)
}

func (b *builder) expr(x ast.Expr) (*mir.Instr, error) {
	switch x := x.(type) {
	case *ast.NumberLit:
		return b.constant(x.Value), nil
	case *ast.BoolLit:
		c := b.g.NewInstr(mir.OpConstant, mir.TypeBoolean)
		if x.Value {
			c.Num = 1
		}
		return b.emit(c), nil
	case *ast.Ident:
		return b.readName(x)
	case *ast.NewArray:
		n, err := b.expr(x.Len)
		if err != nil {
			return nil, err
		}
		if n, err = b.requireDouble(n, "array length"); err != nil {
			return nil, err
		}
		return b.emit(b.g.NewInstr(mir.OpNewArray, mir.TypeObject, n)), nil
	case *ast.IndexExpr:
		return b.indexLoad(x)
	case *ast.MemberExpr:
		return b.member(x)
	case *ast.CallExpr:
		return b.call(x)
	case *ast.UnaryExpr:
		return b.unary(x)
	case *ast.BinaryExpr:
		return b.binary(x)
	case *ast.LogicalExpr:
		return b.logical(x)
	case *ast.CondExpr:
		return b.conditional(x)
	case *ast.AssignExpr:
		return b.assign(x)
	case *ast.UpdateExpr:
		return b.update(x)
	default:
		return nil, unsupportedf("expression %T", x)
	}
}

func (b *builder) readName(x *ast.Ident) (*mir.Instr, error) {
	if b.locals[x.Name] {
		v := b.readVar(x.Name, b.cur)
		if v.Type == mir.TypeValue {
			return nil, unsupportedf("variable %q has mixed types", x.Name)
		}
		return v, nil
	}
	slot, ok := b.globalSlots[x.Name]
	if !ok {
		return nil, unsupportedf("unknown global %q", x.Name)
	}
	load := b.g.NewInstr(mir.OpLoadGlobal, mir.TypeValue)
	load.Aux = slot
	b.emit(load)
	var t mir.Type
	switch b.opts.GlobalType(slot) {
	case value.Number, value.Boolean:
		t = mir.TypeDouble
	case value.Array:
		t = mir.TypeObject
	default:
		return nil, unsupportedf("global %q has type %s", x.Name, b.opts.GlobalType(slot))
	}
	guard := b.g.NewInstr(mir.OpGuardType, t, load)
	guard.Aux = int(t)
	return b.emit(guard), nil
}

func (b *builder) assignName(name string, v *mir.Instr) error {
	if b.locals[name] {
		b.writeVar(name, b.cur, v)
		return nil
	}
	slot, ok := b.globalSlots[name]
	if !ok {
		return unsupportedf("unknown global %q", name)
	}
	st := b.g.NewInstr(mir.OpStoreGlobal, mir.TypeNone, v)
	st.Aux = slot
	b.emit(st)
	return nil
}

// elementsOf emits elements + initializedlength for an array value and
// returns both.
func (b *builder) elementsOf(obj *mir.Instr) (elems, length *mir.Instr) {
	elems = b.emit(b.g.NewInstr(mir.OpElements, mir.TypeElements, obj))
	length = b.emit(b.g.NewInstr(mir.OpInitializedLength, mir.TypeDouble, elems))
	return elems, length
}

func (b *builder) indexLoad(x *ast.IndexExpr) (*mir.Instr, error) {
	obj, err := b.expr(x.X)
	if err != nil {
		return nil, err
	}
	if obj, err = b.requireObject(obj, "indexed value"); err != nil {
		return nil, err
	}
	idx, err := b.expr(x.Index)
	if err != nil {
		return nil, err
	}
	if idx, err = b.requireDouble(idx, "array index"); err != nil {
		return nil, err
	}
	elems, length := b.elementsOf(obj)
	b.emit(b.g.NewInstr(mir.OpBoundsCheck, mir.TypeNone, idx, length))
	return b.emit(b.g.NewInstr(mir.OpLoadElement, mir.TypeDouble, elems, idx)), nil
}

func (b *builder) indexStore(x *ast.IndexExpr, v *mir.Instr) error {
	obj, err := b.expr(x.X)
	if err != nil {
		return err
	}
	if obj, err = b.requireObject(obj, "indexed value"); err != nil {
		return err
	}
	idx, err := b.expr(x.Index)
	if err != nil {
		return err
	}
	if idx, err = b.requireDouble(idx, "array index"); err != nil {
		return err
	}
	if _, err = b.requireDouble(v, "stored value"); err != nil {
		return err
	}
	elems, length := b.elementsOf(obj)
	b.emit(b.g.NewInstr(mir.OpBoundsCheck, mir.TypeNone, idx, length))
	b.emit(b.g.NewInstr(mir.OpStoreElement, mir.TypeNone, elems, idx, v))
	return nil
}

func (b *builder) member(x *ast.MemberExpr) (*mir.Instr, error) {
	if base, ok := x.X.(*ast.Ident); ok && base.Name == "Math" {
		switch x.Name {
		case "PI":
			return b.constant(3.141592653589793), nil
		case "E":
			return b.constant(2.718281828459045), nil
		}
		return nil, unsupportedf("Math.%s", x.Name)
	}
	if x.Name != "length" {
		return nil, unsupportedf("property %q", x.Name)
	}
	obj, err := b.expr(x.X)
	if err != nil {
		return nil, err
	}
	if obj, err = b.requireObject(obj, ".length receiver"); err != nil {
		return nil, err
	}
	_, length := b.elementsOf(obj)
	return length, nil
}

func (b *builder) call(x *ast.CallExpr) (*mir.Instr, error) {
	switch callee := x.Callee.(type) {
	case *ast.Ident:
		switch callee.Name {
		case "__addrof":
			if len(x.Args) != 1 {
				return nil, unsupportedf("__addrof arity")
			}
			obj, err := b.expr(x.Args[0])
			if err != nil {
				return nil, err
			}
			if obj, err = b.requireObject(obj, "__addrof argument"); err != nil {
				return nil, err
			}
			return b.emit(b.g.NewInstr(mir.OpAddrOf, mir.TypeDouble, obj)), nil
		case "__codebase":
			return b.emit(b.g.NewInstr(mir.OpCodeBase, mir.TypeDouble)), nil
		case "print":
			return nil, unsupportedf("print")
		}
		fnIdx, ok := b.prog.FuncByName[callee.Name]
		if !ok {
			return nil, unsupportedf("call to %q", callee.Name)
		}
		args := make([]*mir.Instr, 0, len(x.Args))
		for _, a := range x.Args {
			v, err := b.expr(a)
			if err != nil {
				return nil, err
			}
			if v.Type == mir.TypeValue || v.Type == mir.TypeElements {
				return nil, unsupportedf("call argument type %s", v.Type)
			}
			args = append(args, v)
		}
		var t mir.Type
		switch b.opts.ReturnType(fnIdx) {
		case value.Number, value.Boolean, value.Undefined:
			t = mir.TypeDouble // undefined flows as NaN
		case value.Array:
			t = mir.TypeObject
		default:
			return nil, unsupportedf("callee %q returns %s", callee.Name, b.opts.ReturnType(fnIdx))
		}
		callIn := b.g.NewInstr(mir.OpCall, t, args...)
		callIn.Aux = fnIdx
		return b.emit(callIn), nil
	case *ast.MemberExpr:
		return b.methodCall(callee, x.Args)
	default:
		return nil, unsupportedf("call target %T", x.Callee)
	}
}

// pureMathBuiltins are Math functions the JIT compiles to OpMathFunc.
var pureMathBuiltins = map[string]bytecode.Builtin{
	"abs": bytecode.BMathAbs, "floor": bytecode.BMathFloor,
	"ceil": bytecode.BMathCeil, "round": bytecode.BMathRound,
	"sqrt": bytecode.BMathSqrt, "pow": bytecode.BMathPow,
	"sin": bytecode.BMathSin, "cos": bytecode.BMathCos,
	"tan": bytecode.BMathTan, "atan": bytecode.BMathAtan,
	"atan2": bytecode.BMathAtan2, "exp": bytecode.BMathExp,
	"log": bytecode.BMathLog, "min": bytecode.BMathMin,
	"max": bytecode.BMathMax, "random": bytecode.BMathRandom,
}

func (b *builder) methodCall(callee *ast.MemberExpr, argExprs []ast.Expr) (*mir.Instr, error) {
	if base, ok := callee.X.(*ast.Ident); ok && base.Name == "Math" {
		bi, ok := pureMathBuiltins[callee.Name]
		if !ok {
			return nil, unsupportedf("Math.%s", callee.Name)
		}
		want := 1
		switch bi {
		case bytecode.BMathMin, bytecode.BMathMax, bytecode.BMathPow, bytecode.BMathAtan2:
			want = 2
		case bytecode.BMathRandom:
			want = 0
		}
		if len(argExprs) != want {
			return nil, unsupportedf("Math.%s with %d args (JIT supports %d)", callee.Name, len(argExprs), want)
		}
		args := make([]*mir.Instr, 0, len(argExprs))
		for _, a := range argExprs {
			v, err := b.expr(a)
			if err != nil {
				return nil, err
			}
			if v, err = b.requireDouble(v, "Math argument"); err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		in := b.g.NewInstr(mir.OpMathFunc, mir.TypeDouble, args...)
		in.Aux = int(bi)
		return b.emit(in), nil
	}
	switch callee.Name {
	case "push":
		if len(argExprs) != 1 {
			return nil, unsupportedf("push with %d args", len(argExprs))
		}
		obj, err := b.expr(callee.X)
		if err != nil {
			return nil, err
		}
		if obj, err = b.requireObject(obj, "push receiver"); err != nil {
			return nil, err
		}
		v, err := b.expr(argExprs[0])
		if err != nil {
			return nil, err
		}
		if v, err = b.requireDouble(v, "pushed value"); err != nil {
			return nil, err
		}
		return b.emit(b.g.NewInstr(mir.OpArrayPush, mir.TypeDouble, obj, v)), nil
	case "pop":
		obj, err := b.expr(callee.X)
		if err != nil {
			return nil, err
		}
		if obj, err = b.requireObject(obj, "pop receiver"); err != nil {
			return nil, err
		}
		return b.emit(b.g.NewInstr(mir.OpArrayPop, mir.TypeDouble, obj)), nil
	default:
		return nil, unsupportedf("method %q", callee.Name)
	}
}

func (b *builder) unary(x *ast.UnaryExpr) (*mir.Instr, error) {
	v, err := b.expr(x.X)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case token.Minus:
		if v, err = b.requireDouble(v, "negation operand"); err != nil {
			return nil, err
		}
		return b.emit(b.g.NewInstr(mir.OpNeg, mir.TypeDouble, v)), nil
	case token.Bang:
		if v, err = b.requireDouble(v, "! operand"); err != nil {
			return nil, err
		}
		return b.emit(b.g.NewInstr(mir.OpNot, mir.TypeBoolean, v)), nil
	case token.Tilde:
		if v, err = b.requireDouble(v, "~ operand"); err != nil {
			return nil, err
		}
		m1 := b.constant(-1)
		return b.emit(b.g.NewInstr(mir.OpBitXor, mir.TypeDouble, v, m1)), nil
	default:
		return nil, unsupportedf("unary %s", x.Op)
	}
}

var binOps = map[token.Kind]mir.Op{
	token.Plus: mir.OpAdd, token.Minus: mir.OpSub, token.Star: mir.OpMul,
	token.Slash: mir.OpDiv, token.Percent: mir.OpMod, token.StarStar: mir.OpPow,
	token.Amp: mir.OpBitAnd, token.Pipe: mir.OpBitOr, token.Caret: mir.OpBitXor,
	token.Shl: mir.OpShl, token.Shr: mir.OpShr, token.Ushr: mir.OpUshr,
}

var cmpOps = map[token.Kind]mir.CompareKind{
	token.Lt: mir.CmpLt, token.Le: mir.CmpLe, token.Gt: mir.CmpGt,
	token.Ge: mir.CmpGe, token.Eq: mir.CmpEq, token.NotEq: mir.CmpNe,
	token.StrictEq: mir.CmpEq, token.StrictNe: mir.CmpNe,
}

func (b *builder) binary(x *ast.BinaryExpr) (*mir.Instr, error) {
	lhs, err := b.expr(x.X)
	if err != nil {
		return nil, err
	}
	rhs, err := b.expr(x.Y)
	if err != nil {
		return nil, err
	}
	if op, ok := binOps[x.Op]; ok {
		if lhs, err = b.requireDouble(lhs, "left operand"); err != nil {
			return nil, err
		}
		if rhs, err = b.requireDouble(rhs, "right operand"); err != nil {
			return nil, err
		}
		return b.emit(b.g.NewInstr(op, mir.TypeDouble, lhs, rhs)), nil
	}
	if kind, ok := cmpOps[x.Op]; ok {
		if lhs, err = b.requireDouble(lhs, "left operand"); err != nil {
			return nil, err
		}
		if rhs, err = b.requireDouble(rhs, "right operand"); err != nil {
			return nil, err
		}
		cmp := b.g.NewInstr(mir.OpCompare, mir.TypeBoolean, lhs, rhs)
		cmp.Aux = int(kind)
		return b.emit(cmp), nil
	}
	return nil, unsupportedf("binary %s", x.Op)
}

// logical lowers && and || via control flow and a phi, preserving JS
// value semantics (the result is one of the operands).
func (b *builder) logical(x *ast.LogicalExpr) (*mir.Instr, error) {
	lhs, err := b.expr(x.X)
	if err != nil {
		return nil, err
	}
	if lhs, err = b.requireDouble(lhs, "logical operand"); err != nil {
		return nil, err
	}
	rhsB := b.g.NewBlock()
	join := b.g.NewBlock()
	if x.Op == token.AmpAmp {
		b.branch(lhs, rhsB, join)
	} else {
		b.branch(lhs, join, rhsB)
	}
	b.sealed[rhsB] = true
	lhsPred := b.cur

	b.startBlock(rhsB)
	rhs, err := b.expr(x.Y)
	if err != nil {
		return nil, err
	}
	if rhs, err = b.requireDouble(rhs, "logical operand"); err != nil {
		return nil, err
	}
	b.gotoBlock(join)
	rhsPred := b.cur
	b.sealBlock(join)
	b.startBlock(join)
	phi := b.g.NewInstr(mir.OpPhi, mir.TypeDouble)
	// Order phi inputs to match join.Preds.
	for _, p := range join.Preds {
		if p == lhsPred {
			phi.Operands = append(phi.Operands, lhs)
		} else if p == rhsPred {
			phi.Operands = append(phi.Operands, rhs)
		}
	}
	join.AddPhi(phi)
	return phi, nil
}

func (b *builder) conditional(x *ast.CondExpr) (*mir.Instr, error) {
	cond, err := b.expr(x.Cond)
	if err != nil {
		return nil, err
	}
	if cond, err = b.requireDouble(cond, "?: condition"); err != nil {
		return nil, err
	}
	thenB := b.g.NewBlock()
	elseB := b.g.NewBlock()
	join := b.g.NewBlock()
	b.branch(cond, thenB, elseB)
	b.sealed[thenB] = true
	b.sealed[elseB] = true

	b.startBlock(thenB)
	tv, err := b.expr(x.Then)
	if err != nil {
		return nil, err
	}
	b.gotoBlock(join)
	thenPred := b.cur

	b.startBlock(elseB)
	ev, err := b.expr(x.Else)
	if err != nil {
		return nil, err
	}
	b.gotoBlock(join)
	elsePred := b.cur

	b.sealBlock(join)
	b.startBlock(join)
	if tv.Type != ev.Type &&
		!(isNumeric(tv.Type) && isNumeric(ev.Type)) {
		return nil, unsupportedf("?: branches have types %s and %s", tv.Type, ev.Type)
	}
	t := tv.Type
	if isNumeric(tv.Type) && isNumeric(ev.Type) && tv.Type != ev.Type {
		t = mir.TypeDouble
	}
	phi := b.g.NewInstr(mir.OpPhi, t)
	for _, p := range join.Preds {
		if p == thenPred {
			phi.Operands = append(phi.Operands, tv)
		} else if p == elsePred {
			phi.Operands = append(phi.Operands, ev)
		}
	}
	join.AddPhi(phi)
	return phi, nil
}

func isNumeric(t mir.Type) bool { return t == mir.TypeDouble || t == mir.TypeBoolean }

func (b *builder) assign(x *ast.AssignExpr) (*mir.Instr, error) {
	// Compute the value (for compound ops, read target first).
	var compute func(cur *mir.Instr) (*mir.Instr, error)
	if x.Op == token.Assign {
		compute = func(*mir.Instr) (*mir.Instr, error) { return b.expr(x.Value) }
	} else {
		binOp, ok := binOps[x.Op.CompoundOp()]
		if !ok {
			return nil, unsupportedf("compound assignment %s", x.Op)
		}
		compute = func(cur *mir.Instr) (*mir.Instr, error) {
			rhs, err := b.expr(x.Value)
			if err != nil {
				return nil, err
			}
			if rhs, err = b.requireDouble(rhs, "right operand"); err != nil {
				return nil, err
			}
			if cur, err = b.requireDouble(cur, "assignment target"); err != nil {
				return nil, err
			}
			return b.emit(b.g.NewInstr(binOp, mir.TypeDouble, cur, rhs)), nil
		}
	}

	switch target := x.Target.(type) {
	case *ast.Ident:
		var cur *mir.Instr
		if x.Op != token.Assign {
			var err error
			cur, err = b.readName(target)
			if err != nil {
				return nil, err
			}
		}
		v, err := compute(cur)
		if err != nil {
			return nil, err
		}
		if err := b.assignName(target.Name, v); err != nil {
			return nil, err
		}
		return v, nil
	case *ast.IndexExpr:
		if x.Op == token.Assign {
			v, err := b.expr(x.Value)
			if err != nil {
				return nil, err
			}
			if v, err = b.requireDouble(v, "stored value"); err != nil {
				return nil, err
			}
			if err := b.indexStore(target, v); err != nil {
				return nil, err
			}
			return v, nil
		}
		cur, err := b.indexLoad(target)
		if err != nil {
			return nil, err
		}
		v, err := compute(cur)
		if err != nil {
			return nil, err
		}
		if err := b.indexStore(target, v); err != nil {
			return nil, err
		}
		return v, nil
	case *ast.MemberExpr:
		if target.Name != "length" {
			return nil, unsupportedf("assignment to property %q", target.Name)
		}
		obj, err := b.expr(target.X)
		if err != nil {
			return nil, err
		}
		if obj, err = b.requireObject(obj, ".length receiver"); err != nil {
			return nil, err
		}
		var cur *mir.Instr
		if x.Op != token.Assign {
			_, cur = b.elementsOf(obj)
		}
		v, err := compute(cur)
		if err != nil {
			return nil, err
		}
		if v, err = b.requireDouble(v, "length value"); err != nil {
			return nil, err
		}
		b.emit(b.g.NewInstr(mir.OpSetLength, mir.TypeNone, obj, v))
		return v, nil
	default:
		return nil, unsupportedf("assignment target %T", x.Target)
	}
}

func (b *builder) update(x *ast.UpdateExpr) (*mir.Instr, error) {
	op := mir.OpAdd
	if x.Op == token.MinusMinus {
		op = mir.OpSub
	}
	switch target := x.Target.(type) {
	case *ast.Ident:
		cur, err := b.readName(target)
		if err != nil {
			return nil, err
		}
		if cur, err = b.requireDouble(cur, "update target"); err != nil {
			return nil, err
		}
		one := b.constant(1)
		next := b.emit(b.g.NewInstr(op, mir.TypeDouble, cur, one))
		if err := b.assignName(target.Name, next); err != nil {
			return nil, err
		}
		if x.Prefix {
			return next, nil
		}
		return cur, nil
	case *ast.IndexExpr:
		cur, err := b.indexLoad(target)
		if err != nil {
			return nil, err
		}
		one := b.constant(1)
		next := b.emit(b.g.NewInstr(op, mir.TypeDouble, cur, one))
		if err := b.indexStore(target, next); err != nil {
			return nil, err
		}
		if x.Prefix {
			return next, nil
		}
		return cur, nil
	default:
		return nil, unsupportedf("update target %T", x.Target)
	}
}
