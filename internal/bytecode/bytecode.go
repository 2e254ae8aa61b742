// Package bytecode defines the stack bytecode that nanojs sources compile
// to. The interpreter tier executes this bytecode directly; the optimizing
// tier compiles the same functions (from the AST) into MIR.
package bytecode

import (
	"fmt"
	"strings"

	"github.com/jitbull/jitbull/internal/value"
)

// Op is a bytecode opcode.
type Op uint8

// Bytecode opcodes. Operands A and B are encoded in the instruction.
const (
	OpNop Op = iota

	// Stack manipulation.
	OpConst // push Consts[A]
	OpUndef
	OpNull
	OpTrue
	OpFalse
	OpPop
	OpDup
	OpDup2 // duplicate the top two slots (a b -> a b a b)

	// Variables.
	OpLoadLocal   // push locals[A]
	OpStoreLocal  // locals[A] = pop
	OpLoadGlobal  // push globals[A]
	OpStoreGlobal // globals[A] = pop

	// Arithmetic and bitwise (binary ops pop y then x, push x op y).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr
	OpUshr

	// Unary.
	OpNeg
	OpNot
	OpBitNot
	OpTypeof

	// Comparison.
	OpEq
	OpNe
	OpStrictEq
	OpStrictNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Control flow (A = absolute target pc).
	OpJump
	OpJumpIfFalse // pops condition
	OpJumpIfTrue  // pops condition

	// Calls.
	OpCall        // A = function index, B = argc; pops args, pushes result
	OpCallBuiltin // A = builtin id, B = argc; pops args, pushes result

	OpReturn // pops result
	OpReturnUndef

	// Arrays.
	OpNewArray  // pops length, pushes array
	OpArrayLit  // A = element count; pops elements, pushes array
	OpGetElem   // pops idx, arr; pushes arr[idx]
	OpSetElem   // pops v, idx, arr; pushes v
	OpGetLength // pops arr, pushes arr.length
	OpSetLength // pops v, arr; pushes v
)

var opNames = [...]string{
	OpNop:         "nop",
	OpConst:       "const",
	OpUndef:       "undef",
	OpNull:        "null",
	OpTrue:        "true",
	OpFalse:       "false",
	OpPop:         "pop",
	OpDup:         "dup",
	OpDup2:        "dup2",
	OpLoadLocal:   "loadlocal",
	OpStoreLocal:  "storelocal",
	OpLoadGlobal:  "loadglobal",
	OpStoreGlobal: "storeglobal",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpDiv:         "div",
	OpMod:         "mod",
	OpPow:         "pow",
	OpBitAnd:      "bitand",
	OpBitOr:       "bitor",
	OpBitXor:      "bitxor",
	OpShl:         "shl",
	OpShr:         "shr",
	OpUshr:        "ushr",
	OpNeg:         "neg",
	OpNot:         "not",
	OpBitNot:      "bitnot",
	OpTypeof:      "typeof",
	OpEq:          "eq",
	OpNe:          "ne",
	OpStrictEq:    "stricteq",
	OpStrictNe:    "strictne",
	OpLt:          "lt",
	OpLe:          "le",
	OpGt:          "gt",
	OpGe:          "ge",
	OpJump:        "jump",
	OpJumpIfFalse: "jumpiffalse",
	OpJumpIfTrue:  "jumpiftrue",
	OpCall:        "call",
	OpCallBuiltin: "callbuiltin",
	OpReturn:      "return",
	OpReturnUndef: "returnundef",
	OpNewArray:    "newarray",
	OpArrayLit:    "arraylit",
	OpGetElem:     "getelem",
	OpSetElem:     "setelem",
	OpGetLength:   "getlength",
	OpSetLength:   "setlength",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Builtin identifies a native helper callable with OpCallBuiltin.
type Builtin int32

// Builtins. Method-style builtins (push, pop, charCodeAt) take their
// receiver as the first argument.
const (
	BPrint Builtin = iota + 1
	BMathAbs
	BMathFloor
	BMathCeil
	BMathRound
	BMathSqrt
	BMathMin
	BMathMax
	BMathPow
	BMathSin
	BMathCos
	BMathTan
	BMathAtan
	BMathAtan2
	BMathExp
	BMathLog
	BMathRandom
	BArrayPush
	BArrayPop
	BCharCodeAt
	BFromCharCode
	// BAddrOf and BCodeBase model the information-leak step of a real
	// exploit chain: our arena layout is deterministic, so the "leak" is a
	// direct query. They exist so vulnerability demonstrator codes stay
	// compact; they grant no write capability by themselves.
	BAddrOf
	BCodeBase
)

var builtinNames = map[Builtin]string{
	BPrint:        "print",
	BMathAbs:      "Math.abs",
	BMathFloor:    "Math.floor",
	BMathCeil:     "Math.ceil",
	BMathRound:    "Math.round",
	BMathSqrt:     "Math.sqrt",
	BMathMin:      "Math.min",
	BMathMax:      "Math.max",
	BMathPow:      "Math.pow",
	BMathSin:      "Math.sin",
	BMathCos:      "Math.cos",
	BMathTan:      "Math.tan",
	BMathAtan:     "Math.atan",
	BMathAtan2:    "Math.atan2",
	BMathExp:      "Math.exp",
	BMathLog:      "Math.log",
	BMathRandom:   "Math.random",
	BArrayPush:    "push",
	BArrayPop:     "pop",
	BCharCodeAt:   "charCodeAt",
	BFromCharCode: "String.fromCharCode",
	BAddrOf:       "__addrof",
	BCodeBase:     "__codebase",
}

// String returns the source-level name of the builtin.
func (b Builtin) String() string {
	if s, ok := builtinNames[b]; ok {
		return s
	}
	return fmt.Sprintf("Builtin(%d)", int32(b))
}

// Instr is one bytecode instruction.
type Instr struct {
	Op Op
	A  int32
	B  int32
}

// OSRSite marks one loop header as an on-stack-replacement entry point.
// Ordinal numbers every loop statement of the function in source order
// (for/while/do-while all consume an ordinal, so the numbering matches the
// MIR builder's walk even though do-while loops — whose back edge is a
// conditional jump — never get a site). HeaderPC is the back-edge target:
// the pc the loop's closing OpJump points at.
type OSRSite struct {
	Ordinal  int
	HeaderPC int
}

// SpecSite marks one speculation-eligible call-assignment statement
// (`x = f(...)` / `var x = f(...)` with a direct call to a declared
// function). Ordinal numbers eligible sites in source order, mirroring the
// MIR builder's numbering; ResumePC is the pc immediately after the
// OpStoreLocal, where a deoptimized frame resumes interpretation; StoreSlot
// is the local the call result lands in.
type SpecSite struct {
	Ordinal   int
	ResumePC  int
	StoreSlot int
}

// Function is one compiled nanojs function.
type Function struct {
	Name      string
	Index     int // index in Program.Funcs
	NumParams int
	NumLocals int // params + declared locals
	Code      []Instr
	Consts    []value.Value

	// OSR/deoptimization metadata (additive: CanonicalHash deliberately
	// excludes it — the executable content is unchanged by its presence).
	OSRSites  []OSRSite
	SpecSites []SpecSite

	// MaxStack bounds the operand-stack depth of any activation (see
	// ComputeMaxStack; the compiler fills it in). It is derived from Code,
	// so CanonicalHash excludes it too.
	MaxStack int
}

// OSRSiteAt returns the OSR site whose header is pc, if any.
func (f *Function) OSRSiteAt(pc int) (OSRSite, bool) {
	for _, s := range f.OSRSites {
		if s.HeaderPC == pc {
			return s, true
		}
	}
	return OSRSite{}, false
}

// SpecSiteByOrdinal returns the speculation site with the given ordinal.
func (f *Function) SpecSiteByOrdinal(ord int) (SpecSite, bool) {
	for _, s := range f.SpecSites {
		if s.Ordinal == ord {
			return s, true
		}
	}
	return SpecSite{}, false
}

// Program is a compiled script: Funcs[0] is the synthetic top-level entry.
type Program struct {
	Funcs       []*Function
	GlobalNames []string
	FuncByName  map[string]int
	Source      string
}

// Main returns the synthetic top-level function.
func (p *Program) Main() *Function { return p.Funcs[0] }

// Disassemble renders a function's bytecode for diagnostics and tests.
func (f *Function) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "function %s (params=%d locals=%d)\n", f.Name, f.NumParams, f.NumLocals)
	for pc, in := range f.Code {
		fmt.Fprintf(&sb, "%4d  %-12s", pc, in.Op)
		switch in.Op {
		case OpConst:
			fmt.Fprintf(&sb, " %d (%s)", in.A, f.Consts[in.A])
		case OpCall:
			fmt.Fprintf(&sb, " fn=%d argc=%d", in.A, in.B)
		case OpCallBuiltin:
			fmt.Fprintf(&sb, " %s argc=%d", Builtin(in.A), in.B)
		case OpLoadLocal, OpStoreLocal, OpLoadGlobal, OpStoreGlobal,
			OpJump, OpJumpIfFalse, OpJumpIfTrue, OpArrayLit:
			fmt.Fprintf(&sb, " %d", in.A)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
