// Package compiler translates nanojs ASTs into bytecode (internal/bytecode)
// for the interpreter tier. The optimizing tier compiles the same AST into
// MIR via internal/mirbuild.
package compiler

import (
	"errors"
	"fmt"
	"math"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/token"
	"github.com/jitbull/jitbull/internal/value"
)

// Error is a compile-time error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("compile %s: %s", e.Pos, e.Msg) }

// mathBuiltins maps Math method names to builtin ids.
var mathBuiltins = map[string]bytecode.Builtin{
	"abs":    bytecode.BMathAbs,
	"floor":  bytecode.BMathFloor,
	"ceil":   bytecode.BMathCeil,
	"round":  bytecode.BMathRound,
	"sqrt":   bytecode.BMathSqrt,
	"min":    bytecode.BMathMin,
	"max":    bytecode.BMathMax,
	"pow":    bytecode.BMathPow,
	"sin":    bytecode.BMathSin,
	"cos":    bytecode.BMathCos,
	"tan":    bytecode.BMathTan,
	"atan":   bytecode.BMathAtan,
	"atan2":  bytecode.BMathAtan2,
	"exp":    bytecode.BMathExp,
	"log":    bytecode.BMathLog,
	"random": bytecode.BMathRandom,
}

// globalBuiltins maps free function names to builtin ids.
var globalBuiltins = map[string]bytecode.Builtin{
	"print":      bytecode.BPrint,
	"__addrof":   bytecode.BAddrOf,
	"__codebase": bytecode.BCodeBase,
}

// methodBuiltins maps method names (receiver pushed as first arg) to
// builtin ids.
var methodBuiltins = map[string]bytecode.Builtin{
	"push":       bytecode.BArrayPush,
	"pop":        bytecode.BArrayPop,
	"charCodeAt": bytecode.BCharCodeAt,
}

// Compile parses and compiles a nanojs source string.
func Compile(src string) (*bytecode.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	bp, err := CompileProgram(prog)
	if err != nil {
		return nil, err
	}
	bp.Source = src
	return bp, nil
}

// CompileProgram compiles a parsed program.
func CompileProgram(prog *ast.Program) (*bytecode.Program, error) {
	c := &compiler{
		prog:    &bytecode.Program{FuncByName: map[string]int{}},
		globals: map[string]int32{},
	}
	// Pass 1: function indices (main is 0) and top-level var names.
	c.prog.Funcs = append(c.prog.Funcs, &bytecode.Function{Name: "(main)", Index: 0})
	for _, fd := range prog.Funcs() {
		if _, dup := c.prog.FuncByName[fd.Name]; dup {
			c.errorf(fd.Pos(), "duplicate function %q", fd.Name)
			continue
		}
		idx := len(c.prog.Funcs)
		c.prog.FuncByName[fd.Name] = idx
		c.prog.Funcs = append(c.prog.Funcs, &bytecode.Function{Name: fd.Name, Index: idx})
	}
	for _, s := range prog.Stmts {
		if vd, ok := s.(*ast.VarDecl); ok {
			for _, name := range vd.Names {
				c.globalSlot(name)
			}
		}
	}
	// Pass 2: compile each function, then main.
	for _, fd := range prog.Funcs() {
		c.compileFunc(c.prog.Funcs[c.prog.FuncByName[fd.Name]], fd)
	}
	c.compileMain(prog)
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	for _, fn := range c.prog.Funcs {
		if err := fn.ComputeMaxStack(); err != nil {
			return nil, fmt.Errorf("compile: internal error: %w", err)
		}
	}
	return c.prog, nil
}

type loopCtx struct {
	breaks    []int // pcs of jumps to patch to loop exit
	continues []int // pcs of jumps to patch to loop post/condition
}

type compiler struct {
	prog    *bytecode.Program
	globals map[string]int32
	errs    []error

	// Per-function state.
	fn       *bytecode.Function
	locals   map[string]int32
	consts   map[constKey]int32
	loops    []*loopCtx
	tempSlot int32 // lazily allocated scratch local; -1 when unallocated
	inMain   bool
	loopOrd  int // loop-statement ordinal (OSR site numbering)
	specOrd  int // speculation-site ordinal
}

type constKey struct {
	typ value.Type
	num float64
	str string
}

func (c *compiler) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *compiler) globalSlot(name string) int32 {
	if slot, ok := c.globals[name]; ok {
		return slot
	}
	slot := int32(len(c.prog.GlobalNames))
	c.prog.GlobalNames = append(c.prog.GlobalNames, name)
	c.globals[name] = slot
	return slot
}

func (c *compiler) emit(op bytecode.Op) int {
	c.fn.Code = append(c.fn.Code, bytecode.Instr{Op: op})
	return len(c.fn.Code) - 1
}

func (c *compiler) emitA(op bytecode.Op, a int32) int {
	c.fn.Code = append(c.fn.Code, bytecode.Instr{Op: op, A: a})
	return len(c.fn.Code) - 1
}

func (c *compiler) emitAB(op bytecode.Op, a, b int32) int {
	c.fn.Code = append(c.fn.Code, bytecode.Instr{Op: op, A: a, B: b})
	return len(c.fn.Code) - 1
}

func (c *compiler) patch(pc int) { c.fn.Code[pc].A = int32(len(c.fn.Code)) }

func (c *compiler) constIndex(v value.Value) int32 {
	key := constKey{typ: v.Type()}
	switch v.Type() {
	case value.Number, value.Boolean:
		key.num = v.AsNumber()
	case value.String:
		key.str = v.AsString()
	}
	if idx, ok := c.consts[key]; ok {
		return idx
	}
	idx := int32(len(c.fn.Consts))
	c.fn.Consts = append(c.fn.Consts, v)
	c.consts[key] = idx
	return idx
}

func (c *compiler) emitConst(v value.Value) { c.emitA(bytecode.OpConst, c.constIndex(v)) }

func (c *compiler) emitNumber(f float64) { c.emitConst(value.Num(f)) }

func (c *compiler) temp() int32 {
	if c.tempSlot < 0 {
		c.tempSlot = int32(c.fn.NumLocals)
		c.fn.NumLocals++
	}
	return c.tempSlot
}

func (c *compiler) beginFunc(fn *bytecode.Function, inMain bool) {
	c.fn = fn
	c.locals = map[string]int32{}
	c.consts = map[constKey]int32{}
	c.loops = nil
	c.tempSlot = -1
	c.inMain = inMain
	c.loopOrd = 0
	c.specOrd = 0
}

// specEligible reports whether assigning v to the named variable is a
// speculation site: a direct call to a declared nanojs function whose
// result lands in a function-local slot. The MIR builder applies the
// identical predicate at the identical traversal points, which keeps the
// two sides' ordinal numbering in lockstep without sharing any state.
func (c *compiler) specEligible(name string, v ast.Expr) bool {
	if c.inMain || v == nil {
		return false
	}
	if _, isLocal := c.locals[name]; !isLocal {
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
	_, declared := c.prog.FuncByName[callee.Name]
	return declared
}

// recordSpecSite registers the speculation site that codegen just finished
// (the OpStoreLocal for the assigned local is the last emitted op).
func (c *compiler) recordSpecSite(name string) {
	ord := c.specOrd
	c.specOrd++
	c.fn.SpecSites = append(c.fn.SpecSites, bytecode.SpecSite{
		Ordinal:   ord,
		ResumePC:  len(c.fn.Code),
		StoreSlot: int(c.locals[name]),
	})
}

func (c *compiler) compileFunc(fn *bytecode.Function, fd *ast.FuncDecl) {
	c.beginFunc(fn, false)
	fn.NumParams = len(fd.Params)
	for i, p := range fd.Params {
		c.locals[p] = int32(i)
	}
	fn.NumLocals = len(fd.Params)
	// Hoist var declarations to function scope.
	ast.Walk(fd.Body, func(n ast.Node) bool {
		if vd, ok := n.(*ast.VarDecl); ok {
			for _, name := range vd.Names {
				if _, exists := c.locals[name]; !exists {
					c.locals[name] = int32(fn.NumLocals)
					fn.NumLocals++
				}
			}
		}
		return true
	})
	c.compileStmt(fd.Body)
	c.emit(bytecode.OpReturnUndef)
}

func (c *compiler) compileMain(prog *ast.Program) {
	c.beginFunc(c.prog.Funcs[0], true)
	for _, s := range prog.Stmts {
		if _, isFn := s.(*ast.FuncDecl); isFn {
			continue
		}
		c.compileStmt(s)
	}
	c.emit(bytecode.OpReturnUndef)
}

// ---- Statements ----

func (c *compiler) compileStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		c.compileVarDecl(s)
	case *ast.ExprStmt:
		c.compileExprForEffect(s.X)
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			c.compileStmt(st)
		}
	case *ast.IfStmt:
		c.compileExpr(s.Cond)
		jElse := c.emitA(bytecode.OpJumpIfFalse, 0)
		c.compileStmt(s.Then)
		if s.Else != nil {
			jEnd := c.emitA(bytecode.OpJump, 0)
			c.patch(jElse)
			c.compileStmt(s.Else)
			c.patch(jEnd)
		} else {
			c.patch(jElse)
		}
	case *ast.WhileStmt:
		top := len(c.fn.Code)
		c.fn.OSRSites = append(c.fn.OSRSites, bytecode.OSRSite{Ordinal: c.loopOrd, HeaderPC: top})
		c.loopOrd++
		c.compileExpr(s.Cond)
		jExit := c.emitA(bytecode.OpJumpIfFalse, 0)
		c.pushLoop()
		c.compileStmt(s.Body)
		c.patchContinues(top)
		c.emitA(bytecode.OpJump, int32(top))
		c.patch(jExit)
		c.patchBreaks()
	case *ast.DoWhileStmt:
		// Do-while loops consume a loop ordinal (the MIR builder numbers
		// every loop statement) but get no OSR site: their back edge is a
		// conditional jump, not the unconditional OpJump the interpreter's
		// OSR hook watches.
		c.loopOrd++
		top := len(c.fn.Code)
		c.pushLoop()
		c.compileStmt(s.Body)
		condPC := len(c.fn.Code)
		c.patchContinues(condPC)
		c.compileExpr(s.Cond)
		c.emitA(bytecode.OpJumpIfTrue, int32(top))
		c.patchBreaks()
	case *ast.ForStmt:
		if s.Init != nil {
			c.compileStmt(s.Init)
		}
		top := len(c.fn.Code)
		c.fn.OSRSites = append(c.fn.OSRSites, bytecode.OSRSite{Ordinal: c.loopOrd, HeaderPC: top})
		c.loopOrd++
		var jExit int = -1
		if s.Cond != nil {
			c.compileExpr(s.Cond)
			jExit = c.emitA(bytecode.OpJumpIfFalse, 0)
		}
		c.pushLoop()
		c.compileStmt(s.Body)
		postPC := len(c.fn.Code)
		c.patchContinues(postPC)
		if s.Post != nil {
			c.compileExprForEffect(s.Post)
		}
		c.emitA(bytecode.OpJump, int32(top))
		if jExit >= 0 {
			c.patch(jExit)
		}
		c.patchBreaks()
	case *ast.BreakStmt:
		if len(c.loops) == 0 {
			c.errorf(s.Pos(), "break outside loop")
			return
		}
		lc := c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emitA(bytecode.OpJump, 0))
	case *ast.ContinueStmt:
		if len(c.loops) == 0 {
			c.errorf(s.Pos(), "continue outside loop")
			return
		}
		lc := c.loops[len(c.loops)-1]
		lc.continues = append(lc.continues, c.emitA(bytecode.OpJump, 0))
	case *ast.ReturnStmt:
		if s.Value != nil {
			c.compileExpr(s.Value)
			c.emit(bytecode.OpReturn)
		} else {
			c.emit(bytecode.OpReturnUndef)
		}
	case *ast.FuncDecl:
		c.errorf(s.Pos(), "nested function declarations are not supported")
	default:
		c.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

func (c *compiler) pushLoop() { c.loops = append(c.loops, &loopCtx{}) }

func (c *compiler) patchBreaks() {
	lc := c.loops[len(c.loops)-1]
	for _, pc := range lc.breaks {
		c.patch(pc)
	}
	c.loops = c.loops[:len(c.loops)-1]
}

func (c *compiler) patchContinues(target int) {
	lc := c.loops[len(c.loops)-1]
	for _, pc := range lc.continues {
		c.fn.Code[pc].A = int32(target)
	}
}

func (c *compiler) compileVarDecl(d *ast.VarDecl) {
	for i, name := range d.Names {
		if d.Inits[i] == nil {
			continue
		}
		c.compileExpr(d.Inits[i])
		c.emitStore(name)
		if c.specEligible(name, d.Inits[i]) {
			c.recordSpecSite(name)
		}
	}
}

// emitStore stores the top of stack into the named variable (popping it).
func (c *compiler) emitStore(name string) {
	if !c.inMain {
		if slot, ok := c.locals[name]; ok {
			c.emitA(bytecode.OpStoreLocal, slot)
			return
		}
	}
	c.emitA(bytecode.OpStoreGlobal, c.globalSlot(name))
}

func (c *compiler) emitLoad(pos token.Pos, name string) {
	if !c.inMain {
		if slot, ok := c.locals[name]; ok {
			c.emitA(bytecode.OpLoadLocal, slot)
			return
		}
	}
	if _, isFn := c.prog.FuncByName[name]; isFn {
		c.errorf(pos, "function %q used as a value (nanojs functions are not first-class)", name)
	}
	c.emitA(bytecode.OpLoadGlobal, c.globalSlot(name))
}

// ---- Expressions ----

// compileExprForEffect compiles x discarding its result, avoiding
// dup/pop churn for the common statement forms.
func (c *compiler) compileExprForEffect(x ast.Expr) {
	switch x := x.(type) {
	case *ast.AssignExpr:
		c.compileAssign(x, false)
		// Statement-level `x = f(...)` with a direct call: a speculation
		// site (nested assignment expressions are deliberately not —
		// deoptimization resumes at statement boundaries only).
		if target, ok := x.Target.(*ast.Ident); ok && x.Op == token.Assign && c.specEligible(target.Name, x.Value) {
			c.recordSpecSite(target.Name)
		}
	case *ast.UpdateExpr:
		c.compileUpdate(x, false)
	default:
		c.compileExpr(x)
		c.emit(bytecode.OpPop)
	}
}

func (c *compiler) compileExpr(x ast.Expr) {
	switch x := x.(type) {
	case *ast.NumberLit:
		c.emitNumber(x.Value)
	case *ast.StringLit:
		c.emitConst(value.Str(x.Value))
	case *ast.BoolLit:
		if x.Value {
			c.emit(bytecode.OpTrue)
		} else {
			c.emit(bytecode.OpFalse)
		}
	case *ast.NullLit:
		c.emit(bytecode.OpNull)
	case *ast.UndefinedLit:
		c.emit(bytecode.OpUndef)
	case *ast.Ident:
		c.emitLoad(x.Pos(), x.Name)
	case *ast.ArrayLit:
		for _, e := range x.Elems {
			c.compileExpr(e)
		}
		c.emitA(bytecode.OpArrayLit, int32(len(x.Elems)))
	case *ast.NewArray:
		c.compileExpr(x.Len)
		c.emit(bytecode.OpNewArray)
	case *ast.IndexExpr:
		c.compileExpr(x.X)
		c.compileExpr(x.Index)
		c.emit(bytecode.OpGetElem)
	case *ast.MemberExpr:
		c.compileMember(x)
	case *ast.CallExpr:
		c.compileCall(x)
	case *ast.UnaryExpr:
		c.compileUnary(x)
	case *ast.BinaryExpr:
		c.compileExpr(x.X)
		c.compileExpr(x.Y)
		c.emitBinary(x.Pos(), x.Op)
	case *ast.LogicalExpr:
		c.compileExpr(x.X)
		c.emit(bytecode.OpDup)
		var j int
		if x.Op == token.AmpAmp {
			j = c.emitA(bytecode.OpJumpIfFalse, 0)
		} else {
			j = c.emitA(bytecode.OpJumpIfTrue, 0)
		}
		c.emit(bytecode.OpPop)
		c.compileExpr(x.Y)
		c.patch(j)
	case *ast.CondExpr:
		c.compileExpr(x.Cond)
		jElse := c.emitA(bytecode.OpJumpIfFalse, 0)
		c.compileExpr(x.Then)
		jEnd := c.emitA(bytecode.OpJump, 0)
		c.patch(jElse)
		c.compileExpr(x.Else)
		c.patch(jEnd)
	case *ast.AssignExpr:
		c.compileAssign(x, true)
	case *ast.UpdateExpr:
		c.compileUpdate(x, true)
	default:
		c.errorf(x.Pos(), "unsupported expression %T", x)
		c.emit(bytecode.OpUndef)
	}
}

func (c *compiler) compileMember(x *ast.MemberExpr) {
	if base, ok := x.X.(*ast.Ident); ok && base.Name == "Math" {
		switch x.Name {
		case "PI":
			c.emitNumber(math.Pi)
			return
		case "E":
			c.emitNumber(math.E)
			return
		}
		c.errorf(x.Pos(), "unknown Math property %q (did you mean to call Math.%s(...)?)", x.Name, x.Name)
		c.emit(bytecode.OpUndef)
		return
	}
	if x.Name == "length" {
		c.compileExpr(x.X)
		c.emit(bytecode.OpGetLength)
		return
	}
	c.errorf(x.Pos(), "unknown property %q", x.Name)
	c.emit(bytecode.OpUndef)
}

func (c *compiler) compileCall(x *ast.CallExpr) {
	switch callee := x.Callee.(type) {
	case *ast.Ident:
		if b, ok := globalBuiltins[callee.Name]; ok {
			for _, a := range x.Args {
				c.compileExpr(a)
			}
			c.emitAB(bytecode.OpCallBuiltin, int32(b), int32(len(x.Args)))
			return
		}
		idx, ok := c.prog.FuncByName[callee.Name]
		if !ok {
			c.errorf(callee.Pos(), "call to undeclared function %q", callee.Name)
			c.emit(bytecode.OpUndef)
			return
		}
		for _, a := range x.Args {
			c.compileExpr(a)
		}
		c.emitAB(bytecode.OpCall, int32(idx), int32(len(x.Args)))
	case *ast.MemberExpr:
		if base, ok := callee.X.(*ast.Ident); ok {
			if base.Name == "Math" {
				b, ok := mathBuiltins[callee.Name]
				if !ok {
					c.errorf(callee.Pos(), "unknown Math function %q", callee.Name)
					c.emit(bytecode.OpUndef)
					return
				}
				for _, a := range x.Args {
					c.compileExpr(a)
				}
				c.emitAB(bytecode.OpCallBuiltin, int32(b), int32(len(x.Args)))
				return
			}
			if base.Name == "String" && callee.Name == "fromCharCode" {
				for _, a := range x.Args {
					c.compileExpr(a)
				}
				c.emitAB(bytecode.OpCallBuiltin, int32(bytecode.BFromCharCode), int32(len(x.Args)))
				return
			}
		}
		b, ok := methodBuiltins[callee.Name]
		if !ok {
			c.errorf(callee.Pos(), "unknown method %q", callee.Name)
			c.emit(bytecode.OpUndef)
			return
		}
		c.compileExpr(callee.X) // receiver as first argument
		for _, a := range x.Args {
			c.compileExpr(a)
		}
		c.emitAB(bytecode.OpCallBuiltin, int32(b), int32(len(x.Args)+1))
	default:
		c.errorf(x.Pos(), "invalid call target %T", x.Callee)
		c.emit(bytecode.OpUndef)
	}
}

func (c *compiler) compileUnary(x *ast.UnaryExpr) {
	c.compileExpr(x.X)
	switch x.Op {
	case token.Minus:
		c.emit(bytecode.OpNeg)
	case token.Bang:
		c.emit(bytecode.OpNot)
	case token.Tilde:
		c.emit(bytecode.OpBitNot)
	case token.Typeof:
		c.emit(bytecode.OpTypeof)
	default:
		c.errorf(x.Pos(), "unsupported unary operator %s", x.Op)
	}
}

func (c *compiler) emitBinary(pos token.Pos, op token.Kind) {
	switch op {
	case token.Plus:
		c.emit(bytecode.OpAdd)
	case token.Minus:
		c.emit(bytecode.OpSub)
	case token.Star:
		c.emit(bytecode.OpMul)
	case token.Slash:
		c.emit(bytecode.OpDiv)
	case token.Percent:
		c.emit(bytecode.OpMod)
	case token.StarStar:
		c.emit(bytecode.OpPow)
	case token.Amp:
		c.emit(bytecode.OpBitAnd)
	case token.Pipe:
		c.emit(bytecode.OpBitOr)
	case token.Caret:
		c.emit(bytecode.OpBitXor)
	case token.Shl:
		c.emit(bytecode.OpShl)
	case token.Shr:
		c.emit(bytecode.OpShr)
	case token.Ushr:
		c.emit(bytecode.OpUshr)
	case token.Eq:
		c.emit(bytecode.OpEq)
	case token.NotEq:
		c.emit(bytecode.OpNe)
	case token.StrictEq:
		c.emit(bytecode.OpStrictEq)
	case token.StrictNe:
		c.emit(bytecode.OpStrictNe)
	case token.Lt:
		c.emit(bytecode.OpLt)
	case token.Le:
		c.emit(bytecode.OpLe)
	case token.Gt:
		c.emit(bytecode.OpGt)
	case token.Ge:
		c.emit(bytecode.OpGe)
	default:
		c.errorf(pos, "unsupported binary operator %s", op)
	}
}

// compileAssign compiles target op= value; if wantValue, the assigned value
// is left on the stack.
func (c *compiler) compileAssign(x *ast.AssignExpr, wantValue bool) {
	switch target := x.Target.(type) {
	case *ast.Ident:
		if x.Op == token.Assign {
			c.compileExpr(x.Value)
		} else {
			c.emitLoad(target.Pos(), target.Name)
			c.compileExpr(x.Value)
			c.emitBinary(x.Pos(), x.Op.CompoundOp())
		}
		if wantValue {
			c.emit(bytecode.OpDup)
		}
		c.emitStore(target.Name)
	case *ast.IndexExpr:
		c.compileExpr(target.X)
		c.compileExpr(target.Index)
		if x.Op == token.Assign {
			c.compileExpr(x.Value)
		} else {
			c.emit(bytecode.OpDup2)
			c.emit(bytecode.OpGetElem)
			c.compileExpr(x.Value)
			c.emitBinary(x.Pos(), x.Op.CompoundOp())
		}
		c.emit(bytecode.OpSetElem)
		if !wantValue {
			c.emit(bytecode.OpPop)
		}
	case *ast.MemberExpr:
		if target.Name != "length" {
			c.errorf(target.Pos(), "cannot assign to property %q", target.Name)
			return
		}
		c.compileExpr(target.X)
		if x.Op == token.Assign {
			c.compileExpr(x.Value)
		} else {
			c.emit(bytecode.OpDup)
			c.emit(bytecode.OpGetLength)
			c.compileExpr(x.Value)
			c.emitBinary(x.Pos(), x.Op.CompoundOp())
		}
		c.emit(bytecode.OpSetLength)
		if !wantValue {
			c.emit(bytecode.OpPop)
		}
	default:
		c.errorf(x.Pos(), "invalid assignment target %T", x.Target)
	}
}

// compileUpdate compiles ++/--; if wantValue the expression result (old
// value for postfix, new value for prefix) is left on the stack.
func (c *compiler) compileUpdate(x *ast.UpdateExpr, wantValue bool) {
	delta := bytecode.OpAdd
	if x.Op == token.MinusMinus {
		delta = bytecode.OpSub
	}
	switch target := x.Target.(type) {
	case *ast.Ident:
		c.emitLoad(target.Pos(), target.Name)
		if wantValue && !x.Prefix {
			c.emit(bytecode.OpDup) // old value as result
		}
		c.emitNumber(1)
		c.emit(delta)
		if wantValue && x.Prefix {
			c.emit(bytecode.OpDup) // new value as result
		}
		c.emitStore(target.Name)
	case *ast.IndexExpr:
		c.compileExpr(target.X)
		c.compileExpr(target.Index)
		c.emit(bytecode.OpDup2)
		c.emit(bytecode.OpGetElem)
		if wantValue && !x.Prefix {
			// Save the old value in the scratch local.
			tmp := c.temp()
			c.emit(bytecode.OpDup)
			c.emitA(bytecode.OpStoreLocal, tmp)
		}
		c.emitNumber(1)
		c.emit(delta)
		c.emit(bytecode.OpSetElem)
		if !wantValue {
			c.emit(bytecode.OpPop)
			return
		}
		if !x.Prefix {
			c.emit(bytecode.OpPop)
			c.emitA(bytecode.OpLoadLocal, c.temp())
		}
	default:
		c.errorf(x.Pos(), "invalid update target %T", x.Target)
	}
}
