// Package value defines the runtime values of the nanojs language.
//
// A Value is a small tagged struct. Numbers are IEEE-754 float64 (as in
// JavaScript); arrays are handles into the shared heap arena
// (internal/heap); strings are Go strings. nanojs has no first-class
// function values: functions are called directly by name.
package value

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Type is the runtime type tag of a Value.
type Type uint8

// Value types. Undefined is deliberately the zero value so that a
// zero-initialized Value is `undefined`.
const (
	Undefined Type = iota
	Null
	Boolean
	Number
	String
	Array
)

// String returns the JavaScript-facing name of the type (as typeof would).
func (t Type) String() string {
	switch t {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case Boolean:
		return "boolean"
	case Number:
		return "number"
	case String:
		return "string"
	case Array:
		return "object"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a nanojs runtime value. The field order is the layout: the two
// sub-word fields share the last word, so a Value is 32 bytes (typ first
// would pad it to 40), which is what every interpreter stack slot, local
// and global costs to copy. The string header stays inline — boxing
// strings behind a pointer would shrink the slot to 16 bytes but turn
// every string-producing op into an allocation and every AsString into a
// load.
type Value struct {
	num float64 // Number payload; Boolean stores 0/1; Array stores nothing
	str string  // String payload
	ref int32   // Array handle
	typ Type
}

// Layout reports Value's size and the byte offsets of the typ, num and
// ref fields. The machine-code tier reads (and, for number stores,
// writes) global slots directly; publishing the layout from the owning
// package keeps that consumer correct if the struct ever changes. The str
// field is deliberately not exposed: generated code must never touch the
// pointer-carrying field (no write barriers outside Go).
func Layout() (size, typ, num, ref uintptr) {
	var v Value
	return unsafe.Sizeof(v), unsafe.Offsetof(v.typ), unsafe.Offsetof(v.num), unsafe.Offsetof(v.ref)
}

// Undef is the undefined value.
func Undef() Value { return Value{} }

// NullV is the null value.
func NullV() Value { return Value{typ: Null} }

// Bool makes a boolean value.
func Bool(b bool) Value {
	n := 0.0
	if b {
		n = 1
	}
	return Value{typ: Boolean, num: n}
}

// Num makes a number value.
func Num(f float64) Value { return Value{typ: Number, num: f} }

// Str makes a string value.
func Str(s string) Value { return Value{typ: String, str: s} }

// ArrayRef makes an array value from a heap handle.
func ArrayRef(h int32) Value { return Value{typ: Array, ref: h} }

// SetNum turns a Number or Boolean into the number f in place. It writes
// the type byte and the payload only — no pointer-carrying field, so no
// write barrier — which is what lets the interpreter update a stack slot
// without rewriting all 32 bytes. The receiver must be one CanSetNum
// accepts: a String's payload would stay reachable behind the new type, an
// Array's handle behind it would make the result differ from Num(f).
func (v *Value) SetNum(f float64) { v.typ, v.num = Number, f }

// CanSetNum reports whether v holds nothing but its number payload
// (undefined, null, a Boolean or a Number), so that SetNum leaves exactly
// Num(f) behind.
func (v *Value) CanSetNum() bool { return v.typ <= Number }

// SetBool is SetNum for a boolean result (the four relational and four
// equality operators over two numbers).
func (v *Value) SetBool(b bool) {
	v.typ, v.num = Boolean, 0
	if b {
		v.num = 1
	}
}

// Type returns the value's type tag.
func (v Value) Type() Type { return v.typ }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.typ == Undefined }

// IsNumber reports whether v is a number.
func (v Value) IsNumber() bool { return v.typ == Number }

// IsArray reports whether v is an array.
func (v Value) IsArray() bool { return v.typ == Array }

// IsString reports whether v is a string.
func (v Value) IsString() bool { return v.typ == String }

// AsNumber returns the float64 payload of a Number (or Boolean as 0/1).
// It does not convert other types; use ToNumber for coercion.
func (v Value) AsNumber() float64 { return v.num }

// AsBool returns the boolean payload; only valid for Boolean values.
func (v Value) AsBool() bool { return v.num != 0 }

// AsString returns the string payload; only valid for String values.
func (v Value) AsString() string { return v.str }

// Handle returns the array heap handle; only valid for Array values.
func (v Value) Handle() int32 { return v.ref }

// ToBool applies JavaScript truthiness.
func (v Value) ToBool() bool {
	switch v.typ {
	case Undefined, Null:
		return false
	case Boolean:
		return v.num != 0
	case Number:
		return v.num != 0 && !math.IsNaN(v.num)
	case String:
		return v.str != ""
	default:
		return true
	}
}

// ToNumber applies JavaScript ToNumber coercion (simplified: strings parse
// as float or NaN; arrays are NaN; null is 0; undefined is NaN).
func (v Value) ToNumber() float64 {
	switch v.typ {
	case Undefined:
		return math.NaN()
	case Null:
		return 0
	case Boolean, Number:
		return v.num
	case String:
		if v.str == "" {
			return 0
		}
		f, err := strconv.ParseFloat(v.str, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	default:
		return math.NaN()
	}
}

// ToString renders the value as JavaScript's String() would (simplified
// number formatting: %v for floats, integer form when integral).
func (v Value) ToString() string {
	switch v.typ {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case Boolean:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case Number:
		return FormatNumber(v.num)
	case String:
		return v.str
	case Array:
		return "[object Array]"
	default:
		return "<invalid>"
	}
}

// FormatNumber renders a float64 the way nanojs prints numbers: integers
// without a decimal point, NaN/Infinity spelled as in JS.
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// String implements fmt.Stringer for diagnostics.
func (v Value) String() string { return v.ToString() }

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.typ != b.typ {
		return false
	}
	switch a.typ {
	case Undefined, Null:
		return true
	case Boolean:
		return (a.num != 0) == (b.num != 0)
	case Number:
		return a.num == b.num // NaN != NaN falls out naturally
	case String:
		return a.str == b.str
	case Array:
		return a.ref == b.ref
	default:
		return false
	}
}

// LooseEquals implements == with simplified JS coercion rules: null and
// undefined are mutually equal; mixed number/string/bool compare numerically;
// arrays compare by identity against arrays and are never loosely equal to
// primitives (nanojs arrays have no ToPrimitive).
func LooseEquals(a, b Value) bool {
	if a.typ == b.typ {
		return StrictEquals(a, b)
	}
	aNullish := a.typ == Undefined || a.typ == Null
	bNullish := b.typ == Undefined || b.typ == Null
	if aNullish || bNullish {
		return aNullish && bNullish
	}
	if a.typ == Array || b.typ == Array {
		return false
	}
	return a.ToNumber() == b.ToNumber()
}

// ToInt32 applies JavaScript's ToInt32 (used by bitwise operators): the
// low 32 bits of the value truncated toward zero, in one conversion. A
// magnitude of 2^63 or more, NaN and ±Inf among them, gives 0 on every
// platform. Go leaves the float→int64 conversion of such a value to the
// platform: amd64's is 0x8000000000000000, whose low half is 0 (what the
// machine-code tier's cvttsd2si gives too), arm64's saturates. JavaScript
// would wrap 1e20 to 1661992960; nanojs reads 0 in every tier.
func ToInt32(f float64) int32 {
	if math.Abs(f) < 1<<63 {
		return int32(int64(f))
	}
	return 0
}

// ToUint32 applies JavaScript's ToUint32 (used by >>>), under ToInt32's
// rule for a magnitude of 2^63 or more.
func ToUint32(f float64) uint32 {
	if math.Abs(f) < 1<<63 {
		return uint32(int64(f))
	}
	return 0
}

// ToArrayIndex converts a number to an array index. ok is false when the
// number is negative, non-integral, NaN or too large for int.
func ToArrayIndex(f float64) (idx int, ok bool) {
	if math.IsNaN(f) || f < 0 || f != math.Trunc(f) || f > float64(math.MaxInt32) {
		return 0, false
	}
	return int(f), true
}

// maxExactInt is 2^53, the largest magnitude below which every integer is
// exactly representable in float64.
const maxExactInt = 9007199254740992

// Mod implements JavaScript's % with the integer fast path every real JS
// engine has: for exactly-representable integral operands it is a machine
// integer remainder, falling back to the IEEE-754 remainder otherwise. The
// result takes the dividend's sign, as in JS, a zero remainder included:
// -4 % 2 is -0. An operand is integral when it survives
// the round trip through int64 — one conversion each, the test the
// machine-code tier inlines (mc's emitMod) — and the bounds then hold both
// magnitudes under 2^53, which also rules out whatever the platform makes
// of a conversion out of int64's range.
func Mod(x, y float64) float64 {
	if xi, yi := int64(x), int64(y); float64(xi) == x && float64(yi) == y && yi != 0 &&
		xi > -maxExactInt && xi < maxExactInt && yi > -maxExactInt && yi < maxExactInt {
		return math.Copysign(float64(xi%yi), x)
	}
	return math.Mod(x, y)
}
