package obs

import "sync"

// DefaultRingCapacity holds roughly one long compile run's worth of
// events (a full octane program compiles tens of functions × ~50 events).
const DefaultRingCapacity = 1 << 16

// ring is the package's one bounded buffer: the newest max values win, the
// oldest are overwritten and counted. It grows by appending until it holds
// max values and allocates nothing after that. It has no lock; each view
// that retains through it (Ring, AuditLog) holds its own.
type ring[T any] struct {
	buf   []T
	max   int
	next  int // the slot the next push overwrites, once len(buf) == max
	total int64
}

func (r *ring[T]) push(v T) {
	r.total++
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next++
	if r.next == r.max {
		r.next = 0
	}
}

// items returns a copy of the retained values, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// dropped returns how many values were overwritten.
func (r *ring[T]) dropped() int64 { return r.total - int64(len(r.buf)) }

// Ring is the view that keeps the whole stream: a fixed-capacity in-memory
// Sink a long-running engine can keep attached forever, exporting the tail
// on demand (see WriteChromeTrace and Lifecycles). A nil *Ring keeps
// nothing.
type Ring struct {
	mu sync.Mutex
	r  ring[Event]
}

// NewRing returns a ring holding up to capacity events (<= 0 selects
// DefaultRingCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{r: ring[Event]{max: capacity}}
}

// Record implements Sink.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.r.push(ev)
	r.mu.Unlock()
}

// Events returns the retained events in recording order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.items()
}

// Len returns how many events are currently retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.r.buf)
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten).
func (r *Ring) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.total
}

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.dropped()
}

// MultiSink fans the stream out to several views, in order.
type MultiSink []Sink

// Record implements Sink.
func (m MultiSink) Record(ev Event) {
	for _, s := range m {
		if s != nil {
			s.Record(ev)
		}
	}
}
