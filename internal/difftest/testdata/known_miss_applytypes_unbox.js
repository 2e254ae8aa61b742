// A JITBULL false negative (CVE-2019-9791, ApplyTypes): lin's array
// parameter x loses its unbox guard, and the compiled lin hands bnd a value
// the interpreter cannot index. bnd is outside the JIT subset (a string
// local), so it stays interpreted. The interpreter prints 600; with the
// bug active the JIT run ends in "cannot index non-array value 0", and
// DB #8 judges lin `go`.
function bnd(x) { var s = "k"; x[0] = x[1]; return 0; }
function lin(x, y) {
  for (var i = 0; i < 10; i++) { x[i] = y[i]; }
  bnd(x);
  return x[0];
}
var a = new Array(10);
var b = new Array(10);
for (var i = 0; i < 10; i++) { b[i] = 2; }
var result = 0;
for (var r = 0; r < 300; r++) { result = result + lin(a, b); }
print(result);
