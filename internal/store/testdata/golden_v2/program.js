// The program the parent commit ran to populate store/: confuse is the
// CVE-2019-9791 demonstrator (ApplyTypes is mandatory, so the 4-VDC
// database answers NoJIT), benign is a plain hot loop (a go verdict).
function confuse(a, b, c) {
  return a[0] * 2 + b[1] * 3 + c[2] * 5 + a.length + b.length * 7 - c.length;
}
function benign(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s += i * 2; }
  return s;
}
var x = new Array(8);
var y = new Array(8);
var z = new Array(8);
x[0] = 1; y[1] = 2; z[2] = 3;
var TRAIN = 2000;
var acc = 0;
for (var i = 0; i < TRAIN; i++) { acc += confuse(x, y, z) + benign(3); }
var result = acc;
