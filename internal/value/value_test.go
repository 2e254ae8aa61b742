package value

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestZeroValueIsUndefined(t *testing.T) {
	var v Value
	if !v.IsUndefined() {
		t.Fatal("zero Value must be undefined")
	}
	if v.ToString() != "undefined" {
		t.Fatalf("ToString = %q", v.ToString())
	}
}

func TestTruthiness(t *testing.T) {
	tests := []struct {
		v    Value
		want bool
	}{
		{Undef(), false},
		{NullV(), false},
		{Bool(false), false},
		{Bool(true), true},
		{Num(0), false},
		{Num(math.NaN()), false},
		{Num(1), true},
		{Num(-0.5), true},
		{Str(""), false},
		{Str("x"), true},
		{ArrayRef(0), true},
	}
	for _, tt := range tests {
		if got := tt.v.ToBool(); got != tt.want {
			t.Errorf("ToBool(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestToNumber(t *testing.T) {
	if !math.IsNaN(Undef().ToNumber()) {
		t.Error("undefined should coerce to NaN")
	}
	if NullV().ToNumber() != 0 {
		t.Error("null should coerce to 0")
	}
	if Bool(true).ToNumber() != 1 {
		t.Error("true should coerce to 1")
	}
	if Str("3.5").ToNumber() != 3.5 {
		t.Error(`"3.5" should coerce to 3.5`)
	}
	if Str("").ToNumber() != 0 {
		t.Error(`"" should coerce to 0`)
	}
	if !math.IsNaN(Str("abc").ToNumber()) {
		t.Error(`"abc" should coerce to NaN`)
	}
	if !math.IsNaN(ArrayRef(3).ToNumber()) {
		t.Error("arrays coerce to NaN in nanojs")
	}
}

func TestStrictEquals(t *testing.T) {
	if !StrictEquals(Num(3), Num(3)) {
		t.Error("3 === 3")
	}
	if StrictEquals(Num(math.NaN()), Num(math.NaN())) {
		t.Error("NaN === NaN must be false")
	}
	if StrictEquals(Num(1), Bool(true)) {
		t.Error("1 === true must be false")
	}
	if !StrictEquals(Undef(), Undef()) {
		t.Error("undefined === undefined")
	}
	if StrictEquals(Undef(), NullV()) {
		t.Error("undefined === null must be false")
	}
	if !StrictEquals(ArrayRef(2), ArrayRef(2)) {
		t.Error("same array handle must be ===")
	}
	if StrictEquals(ArrayRef(1), ArrayRef(2)) {
		t.Error("different handles must not be ===")
	}
}

func TestLooseEquals(t *testing.T) {
	if !LooseEquals(Undef(), NullV()) {
		t.Error("undefined == null")
	}
	if !LooseEquals(Num(1), Bool(true)) {
		t.Error("1 == true")
	}
	if !LooseEquals(Str("3"), Num(3)) {
		t.Error(`"3" == 3`)
	}
	if LooseEquals(ArrayRef(0), Num(0)) {
		t.Error("array == 0 must be false in nanojs")
	}
	if LooseEquals(Undef(), Num(0)) {
		t.Error("undefined == 0 must be false")
	}
}

func TestToInt32(t *testing.T) {
	tests := []struct {
		in   float64
		want int32
	}{
		{0, 0},
		{3.7, 3},
		{-3.7, -3},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{4294967296 + 5, 5},       // wraps mod 2^32
		{2147483648, -2147483648}, // 2^31 wraps negative
		{1<<63 - 1024, -1024},     // the largest float below 2^63 still wraps
		// A magnitude of 2^63 or more is 0 on every platform.
		{1e20, 0},
		{-1e20, 0},
		{1 << 63, 0},
		{-(1 << 63), 0},
	}
	for _, tt := range tests {
		if got := ToInt32(tt.in); got != tt.want {
			t.Errorf("ToInt32(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestToUint32(t *testing.T) {
	tests := []struct {
		in   float64
		want uint32
	}{
		{-1, 4294967295},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{4294967296 + 5, 5},
		{-(1<<63 - 1024), 1024},
		{1e20, 0},
		{-1e20, 0},
		{1 << 63, 0},
		{-(1 << 63), 0},
	}
	for _, tt := range tests {
		if got := ToUint32(tt.in); got != tt.want {
			t.Errorf("ToUint32(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// truncMod is Mod as it tested integrality before the int64 round trip:
// by math.Trunc, with the bounds on the floats. It is the reference the
// round-trip test is held to.
func truncMod(x, y float64) float64 {
	if x == math.Trunc(x) && y == math.Trunc(y) && y != 0 &&
		x > -maxExactInt && x < maxExactInt && y > -maxExactInt && y < maxExactInt {
		return math.Copysign(float64(int64(x)%int64(y)), x)
	}
	return math.Mod(x, y)
}

// TestModIsFmod holds Mod to math.Mod, the IEEE remainder whose sign is
// the dividend's as JavaScript's % is, bit for bit: a zero remainder of a
// negative dividend is -0 on the integer path too.
func TestModIsFmod(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tt := range []struct{ x, y float64 }{
		{-4, 2}, {-4, -2}, {4, -2}, {4, 2}, {negZero, 5}, {negZero, -5}, {0, -5},
		{-6, 3}, {-7, 3}, {7, -3}, {-4.5, 1.5}, {4.5, -1.5}, {-(maxExactInt - 2), 2},
		{-1, 1}, {-1, -1}, {negZero, 1}, {5, negZero}, {math.NaN(), 2}, {math.Inf(-1), 2},
	} {
		if got, want := Mod(tt.x, tt.y), math.Mod(tt.x, tt.y); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Mod(%v, %v) = %v (%#x), math.Mod %v (%#x)", tt.x, tt.y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestModMatchesTruncForm holds Mod's one-conversion integrality test to
// the Trunc form, bit for bit, on every ordered pair of the values where
// the two tests could part: non-finite and signed-zero operands, both sides
// of the 2^53 bound and of int64's range, fractions, and the divisors ±1
// and ±0.
func TestModMatchesTruncForm(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero,
		maxExactInt - 1, -(maxExactInt - 1), maxExactInt, -maxExactInt,
		1 << 63, -(1 << 63), 1e300, -1e300,
		0.5, -7.5, 1, -1, 7, -3,
	}
	for _, x := range values {
		for _, y := range values {
			if got, want := Mod(x, y), truncMod(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Mod(%v, %v) = %v (%#x), Trunc form %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestToArrayIndex(t *testing.T) {
	if idx, ok := ToArrayIndex(5); !ok || idx != 5 {
		t.Errorf("ToArrayIndex(5) = %d, %v", idx, ok)
	}
	for _, bad := range []float64{-1, 0.5, math.NaN(), math.Inf(1), 3e9} {
		if _, ok := ToArrayIndex(bad); ok {
			t.Errorf("ToArrayIndex(%v) should fail", bad)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	tests := map[float64]string{
		0:    "0",
		42:   "42",
		-3:   "-3",
		3.5:  "3.5",
		1e20: "1e+20",
	}
	for in, want := range tests {
		if got := FormatNumber(in); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatNumber(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
	if FormatNumber(math.Inf(-1)) != "-Infinity" {
		t.Error("-Inf formatting")
	}
}

func TestStrictEqualsPropertyReflexiveExceptNaN(t *testing.T) {
	f := func(x float64) bool {
		v := Num(x)
		if math.IsNaN(x) {
			return !StrictEquals(v, v)
		}
		return StrictEquals(v, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLooseEqualsPropertySymmetric(t *testing.T) {
	mk := func(tag uint8, n float64, s string) Value {
		switch tag % 5 {
		case 0:
			return Undef()
		case 1:
			return NullV()
		case 2:
			return Bool(n > 0)
		case 3:
			return Num(n)
		default:
			return Str(s)
		}
	}
	f := func(t1, t2 uint8, n1, n2 float64, s1, s2 string) bool {
		a, b := mk(t1, n1, s1), mk(t2, n2, s2)
		return LooseEquals(a, b) == LooseEquals(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeStrings(t *testing.T) {
	tests := map[Type]string{
		Undefined: "undefined",
		Boolean:   "boolean",
		Number:    "number",
		String:    "string",
		Array:     "object",
	}
	for typ, want := range tests {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

// TestValueLayout pins what the interpreter's cost and the machine-code
// tier's inline global window both depend on: a Value is at most 32 bytes,
// and Layout reports the fields where they really are.
func TestValueLayout(t *testing.T) {
	var v Value
	if got := unsafe.Sizeof(v); got > 32 {
		t.Errorf("Value is %d bytes, want <= 32 (field order: num, str, ref, typ)", got)
	}
	size, typ, num, ref := Layout()
	if size != unsafe.Sizeof(v) || typ != unsafe.Offsetof(v.typ) || num != unsafe.Offsetof(v.num) || ref != unsafe.Offsetof(v.ref) {
		t.Errorf("Layout() = size %d typ %d num %d ref %d, struct has size %d typ %d num %d ref %d",
			size, typ, num, ref, unsafe.Sizeof(v), unsafe.Offsetof(v.typ), unsafe.Offsetof(v.num), unsafe.Offsetof(v.ref))
	}
}

func TestSetNumAndSetBoolInPlace(t *testing.T) {
	v := Num(3)
	v.SetNum(4.5)
	if !StrictEquals(v, Num(4.5)) {
		t.Errorf("SetNum: %v", v)
	}
	v.SetBool(true)
	if !StrictEquals(v, Bool(true)) || v.ToString() != "true" {
		t.Errorf("SetBool(true): %v", v)
	}
	v.SetBool(false)
	if !StrictEquals(v, Bool(false)) || v.ToBool() {
		t.Errorf("SetBool(false): %v", v)
	}
	v.SetNum(math.NaN())
	if !v.IsNumber() || !math.IsNaN(v.AsNumber()) {
		t.Errorf("SetNum(NaN): %v", v)
	}
}
