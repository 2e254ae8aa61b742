package jitqueue

import (
	"sync"
	"sync/atomic"

	"github.com/jitbull/jitbull/internal/obs"
)

// Key identifies one compilation in the shared cache: a digest of the
// function's canonical (rename/minify-invariant) bytecode hash plus every
// other compilation input — type feedback, observed-buggy pass set,
// disabled passes, IR checking, and the policy's identity. Two engines
// that would run the exact same pipeline over the exact same input
// produce the same Key; anything that could change the artifact or the
// JITBULL verdict changes it.
type Key [32]byte

// DefaultCacheMaxBytes caps the cache's accounted artifact footprint so a
// long-running fleet compiling an unbounded stream of distinct
// (function, type-feedback) combinations cannot grow memory without
// limit. Artifacts are small (tens of bytes to a few KiB of accounted
// size), so the default holds far more distinct compilations than any
// realistic working set.
const DefaultCacheMaxBytes = 64 << 20

// entry is one cached compilation in the SIEVE list: the value, the size
// the caller accounted it at, and the SIEVE bookkeeping. Entries form a
// doubly-linked list in insertion order (head = newest, tail = oldest).
// visited is atomic so Get can mark it under the read lock.
type entry struct {
	key        Key
	v          any
	size       int64
	visited    atomic.Bool
	prev, next *entry
}

// Cache is a process-wide, first-store-wins map from compilation inputs
// to finished artifacts (compiled code plus the recorded policy verdict).
// Values are opaque to the cache; the engine defines what it stores.
//
// The accounted footprint is bounded with SIEVE eviction: entries live in
// an insertion-ordered list, a Get marks its entry visited, and when a Put
// needs room a hand sweeps from the oldest entry toward the newest,
// clearing visited marks until it finds an unvisited victim. Eviction is
// therefore deterministic in the Get/Put sequence (no map-iteration-order
// dependence) and approximates LRU without per-hit list surgery.
//
// A nil *Cache is valid: every Get misses silently and every Put is
// dropped, which is exactly the cache-off configuration.
type Cache struct {
	mu       sync.RWMutex
	m        map[Key]*entry
	head     *entry // most recently inserted
	tail     *entry // oldest; eviction hand starts here
	hand     *entry // SIEVE hand: next eviction candidate (nil = tail)
	bytes    int64
	maxBytes int64 // <= 0 means unbounded

	mHits   *obs.Counter
	mMisses *obs.Counter
	mEvict  *obs.Counter
	mBytes  *obs.Gauge
	mSize   *obs.Gauge
}

// NewCache builds an empty cache bounded at DefaultCacheMaxBytes. reg,
// when non-nil, receives the cache.{hits,misses,evictions,bytes,entries}
// metrics.
func NewCache(reg *obs.Registry) *Cache {
	return NewCacheLimited(reg, DefaultCacheMaxBytes)
}

// NewCacheLimited builds an empty cache whose accounted footprint is
// capped at maxBytes; maxBytes <= 0 removes the bound (the caller owns
// the unbounded-growth consequences).
func NewCacheLimited(reg *obs.Registry, maxBytes int64) *Cache {
	return &Cache{
		m:        make(map[Key]*entry),
		maxBytes: maxBytes,
		mHits:    reg.Counter("cache.hits"),
		mMisses:  reg.Counter("cache.misses"),
		mEvict:   reg.Counter("cache.evictions"),
		mBytes:   reg.Gauge("cache.bytes"),
		mSize:    reg.Gauge("cache.entries"),
	}
}

// Get looks up a finished compilation and counts the hit or miss.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	e, found := c.m[k]
	c.mu.RUnlock()
	if !found {
		c.mMisses.Inc()
		return nil, false
	}
	e.visited.Store(true)
	c.mHits.Inc()
	return e.v, true
}

// Put stores a finished compilation under k. The first store wins: when
// two engines race to compile the same function the loser's artifact is
// discarded, so every later Get observes one stable artifact+verdict.
// size is the caller's estimate of the artifact's footprint in bytes,
// accounted in cache.bytes; when the store would exceed the cache's
// maximum, the SIEVE hand evicts deterministically, and an entry larger
// than the whole bound is dropped outright.
func (c *Cache) Put(k Key, v any, size int64) {
	if c == nil || v == nil {
		return
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if _, exists := c.m[k]; exists {
		c.mu.Unlock()
		return
	}
	evicted := int64(0)
	if c.maxBytes > 0 {
		for c.bytes+size > c.maxBytes && len(c.m) > 0 {
			c.evictOne()
			evicted++
		}
	}
	e := &entry{key: k, v: v, size: size}
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	c.m[k] = e
	c.bytes += size
	n, b := len(c.m), c.bytes
	c.mu.Unlock()
	if evicted > 0 {
		c.mEvict.Add(evicted)
	}
	c.mSize.Set(int64(n))
	c.mBytes.Set(b)
}

// evictOne runs the SIEVE hand once under the write lock: starting at the
// hand (or the oldest entry), visited entries get their mark cleared and
// are passed over; the first unvisited entry is the victim. With every
// entry visited the sweep wraps once and the second pass — marks now
// cleared — evicts the oldest, so the loop always terminates.
func (c *Cache) evictOne() {
	for {
		h := c.hand
		if h == nil {
			h = c.tail
		}
		if h == nil {
			return
		}
		if h.visited.Swap(false) {
			c.hand = h.prev // toward newer entries; nil wraps to tail
			continue
		}
		c.hand = h.prev
		c.unlink(h)
		delete(c.m, h.key)
		c.bytes -= h.size
		return
	}
}

// unlink removes e from the insertion-order list.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Len returns the number of cached compilations.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Bytes returns the accounted artifact footprint.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}
