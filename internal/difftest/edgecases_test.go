package difftest

import (
	"fmt"
	"strings"
	"testing"
)

// TestEdgeCasesAcrossTiers pins JavaScript numeric and truthiness edge
// cases across every tier: each kernel runs hot enough to Ion-compile, and
// all configurations must agree with the interpreter bit-for-bit (the
// rendered result string distinguishes NaN, Infinity, and -0 via 1/x).
func TestEdgeCasesAcrossTiers(t *testing.T) {
	configs := Matrix(matrixOptions())
	cases := []struct {
		name   string
		kernel string // body of function k(x, y); result accumulates k over a grid
	}{
		{"nan-propagation", `return (x - x) / (y - y) + x;`},
		{"nan-compare", `if (Math.sqrt(0 - x - 1) == Math.sqrt(0 - x - 1)) { return 1; } return 2;`},
		{"negative-zero", `var z = 0 - 0; var w = (0 - x) * 0; return 1 / (z * w + z) + x;`},
		{"div-by-zero", `return (x + 1) / (y - y) - (0 - x - 1) / (y - y);`},
		{"mod-sign", `return (0 - x) % 3 + x % (0 - 3) + (0 - x) % (0 - 3);`},
		{"mod-fractional", `return (x + 0.5) % 0.25 + x % 0.75;`},
		{"shift-wraparound", `return (x << 33) + (x >> 32) + (x >>> 35);`},
		{"int32-overflow", `return ((x * 1000003) | 0) + ((x + 2147483647) | 0);`},
		{"truthiness-zero", `if (x - x) { return 1; } if (x + 1) { return 2; } return 3;`},
		{"truthiness-nan", `if ((x - x) / (y - y)) { return 1; } return 2;`},
		{"ternary-truthiness", `return (x % 2 ? 10 : 20) + (x - x ? 100 : 200);`},
		{"float-precision", `return 0.1 + 0.2 + x * 0.3 - 0.30000000000000004;`},
		{"infinity-arith", `var inf = (x + 1) / (y - y); return inf - inf + (1 / inf);`},
		{"sqrt-negative", `return Math.sqrt(0 - x - 1) + Math.sqrt(x);`},
		{"floor-negative", `return Math.floor(0 - x - 0.5) + Math.floor(x + 0.5);`},
		{"abs-negative-zero", `return 1 / Math.abs((0 - x) * 0 - 0);`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(`
function k(x, y) { %s }
var result = 0;
var probe = "";
for (var r = 0; r < 80; r++) {
  var v = k(r %% 9, r %% 4);
  result = v;
  if (r < 8) { probe = probe + " " + v; }
}
print(probe);
`, tc.kernel)
			_, divs := Diff(src, configs)
			if len(divs) > 0 {
				t.Errorf("%s\nprogram:\n%s", Report(tc.name, divs), src)
			}
		})
	}

	// Unbounded recursion is a Go recursion through the dispatcher in every
	// tier. It must end as the same catchable runtime error everywhere —
	// with `result` never assigned — not as Go's fatal stack overflow.
	t.Run("unbounded-recursion", func(t *testing.T) {
		const src = `function f(n){return f(n+1)+1;} var result=f(0);`
		configs := Matrix(Options{JITBULL: true, Variants: true, CheckIR: true, Async: true, Fusion: true, MC: true, OSR: true})
		obs, divs := Diff(src, configs)
		if len(divs) > 0 {
			t.Errorf("%s\nprogram:\n%s", Report("unbounded-recursion", divs), src)
		}
		for i, o := range obs {
			if o.ErrKind != "runtime" || !strings.Contains(o.ErrMsg, "maximum call depth exceeded") || o.ResultG != "undefined" {
				t.Errorf("%s: kind %q, error %q, result %q", configs[i].Name, o.ErrKind, o.ErrMsg, o.ResultG)
			}
		}
	})
}
