package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a registry metric name into the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use dots as
// namespace separators ("cache.hits"), which become underscores
// ("cache_hits"); any other illegal rune is mapped to '_' too.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm encodes the registry in the Prometheus/OpenMetrics text
// exposition format: TYPE comments, cumulative histogram buckets with
// quoted le labels and a +Inf bucket, and — where a bucket retained an
// exemplar — an OpenMetrics-style exemplar suffix linking the bucket to
// the trace span ID of its most recent extreme observation:
//
//	compile_ns_bucket{le="4000000"} 17 # {span_id="42"} 3917000
//
// Counters are exported as counters, gauges as gauges. Names are
// sanitized via promName; a nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	names := r.sortedNames()
	for _, name := range names {
		pn := promName(name)
		if c, ok := r.counters[name]; ok {
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", pn, pn, c.Value())
		}
		if g, ok := r.gauges[name]; ok {
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", pn, pn, g.Value())
		}
		if h, ok := r.hists[name]; ok {
			s := h.Snapshot()
			fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
			cum := int64(0)
			for i := range s.Counts {
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fmt.Sprintf("%d", s.Bounds[i])
				}
				cum += s.Counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d", pn, le, cum)
				if s.Exemplars != nil && s.Exemplars[i].SpanID != 0 {
					fmt.Fprintf(bw, " # {span_id=\"%d\"} %d", s.Exemplars[i].SpanID, s.Exemplars[i].Value)
				}
				bw.WriteByte('\n')
			}
			fmt.Fprintf(bw, "%s_sum %d\n%s_count %d\n", pn, s.Sum, pn, s.Count)
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}
