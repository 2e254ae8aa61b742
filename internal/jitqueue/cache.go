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

// Codec translates cache values to and from self-contained bytes for the
// second tier. An Encode error keeps the value memory-only and is counted
// (cache.tier_encode_drops): every process after this one compiles it
// cold. A Decode error means the bytes are from an incompatible producer;
// the lookup degrades to a miss (cache.tier_decode_drops).
type Codec interface {
	Encode(v any) (data []byte, err error)
	Decode(data []byte) (v any, err error)
}

// SecondTier is durable storage under the in-memory cache (implemented by
// internal/store). Both methods must be safe for concurrent use and must
// contain their own failures: Get returns ok=false for anything it cannot
// produce trustworthy bytes for, Put may drop the record silently — the
// in-memory tier and a recompile always back it up.
type SecondTier interface {
	Get(k Key) (data []byte, ok bool)
	Put(k Key, data []byte)
}

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
// With a SecondTier attached the cache is write-through: every Put also
// encodes the value and hands the bytes to the tier, and a memory miss
// consults the tier before reporting a miss, promoting (first-store-wins)
// any record that decodes. Tier failures never propagate: an unreadable,
// corrupt, or undecodable record is a miss, and the engine recompiles.
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

	tier  SecondTier
	codec Codec

	mHits         *obs.Counter
	mMisses       *obs.Counter
	mEvict        *obs.Counter
	mBytes        *obs.Gauge
	mSize         *obs.Gauge
	mTierHits     *obs.Counter
	mTierDrops    *obs.Counter
	mTierEncDrops *obs.Counter
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
		m:             make(map[Key]*entry),
		maxBytes:      maxBytes,
		mHits:         reg.Counter("cache.hits"),
		mMisses:       reg.Counter("cache.misses"),
		mEvict:        reg.Counter("cache.evictions"),
		mBytes:        reg.Gauge("cache.bytes"),
		mSize:         reg.Gauge("cache.entries"),
		mTierHits:     reg.Counter("cache.tier_hits"),
		mTierDrops:    reg.Counter("cache.tier_decode_drops"),
		mTierEncDrops: reg.Counter("cache.tier_encode_drops"),
	}
}

// AttachTier wires a durable second tier under the cache: Puts write
// through (via codec.Encode) and memory misses consult it (via
// codec.Decode) before reporting a miss. Attach before the cache is
// shared; the tier and codec are read without synchronization afterwards.
func (c *Cache) AttachTier(t SecondTier, codec Codec) {
	if c == nil {
		return
	}
	c.tier = t
	c.codec = codec
}

// Get looks up a finished compilation and counts the hit or miss. On a
// memory miss with a second tier attached, the tier is consulted and a
// decodable record is promoted into memory (counted as a hit); a record
// that fails to decode is dropped and counted as a miss — version skew at
// the engine layer degrades to a recompile, never an error.
func (c *Cache) Get(k Key) (any, bool) {
	v, ok, _ := c.GetTiered(k)
	return v, ok
}

// GetTiered is Get with hit attribution: fromTier reports whether the
// value was served by promoting a persistent second-tier record rather
// than from memory — the distinction the tier-journey journal renders
// as "store-hit" vs "cache-hit".
func (c *Cache) GetTiered(k Key) (v any, ok, fromTier bool) {
	if c == nil {
		return nil, false, false
	}
	c.mu.RLock()
	e, found := c.m[k]
	c.mu.RUnlock()
	if found {
		e.visited.Store(true)
		c.mHits.Inc()
		return e.v, true, false
	}
	if c.tier != nil && c.codec != nil {
		if data, ok := c.tier.Get(k); ok {
			if v, err := c.codec.Decode(data); err == nil && v != nil {
				c.mTierHits.Inc()
				c.mHits.Inc()
				// Promote without writing back through: the tier already
				// holds the record. First store wins here too.
				if prev, stored := c.put(k, v, c.sizeOf(data)); !stored {
					return prev, true, true
				}
				return v, true, true
			}
			c.mTierDrops.Inc()
		}
	}
	c.mMisses.Inc()
	return nil, false, false
}

// sizeOf accounts a tier-promoted value by its encoded footprint, floored
// at a small constant so zero-length records still count.
func (c *Cache) sizeOf(data []byte) int64 {
	if len(data) < 64 {
		return 64
	}
	return int64(len(data))
}

// Put stores a finished compilation under k. The first store wins: when
// two engines race to compile the same function the loser's artifact is
// discarded, so every later Get observes one stable artifact+verdict.
// size is the caller's estimate of the artifact's footprint in bytes,
// accounted in cache.bytes; when the store would exceed the cache's
// maximum, the SIEVE hand evicts deterministically, and an entry larger
// than the whole bound is dropped outright. With a second tier attached
// the winning value is also encoded and written through.
func (c *Cache) Put(k Key, v any, size int64) {
	if c == nil || v == nil {
		return
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	if _, stored := c.put(k, v, size); !stored {
		return
	}
	if c.tier != nil && c.codec != nil {
		data, err := c.codec.Encode(v)
		if err != nil {
			c.mTierEncDrops.Inc()
			return
		}
		c.tier.Put(k, data)
	}
}

// put inserts under the write lock, evicting via the SIEVE hand as
// needed. It returns the winning value and whether v was the one stored
// (false = an earlier store won).
func (c *Cache) put(k Key, v any, size int64) (winner any, stored bool) {
	if c.maxBytes > 0 && size > c.maxBytes {
		return v, false
	}
	c.mu.Lock()
	if prev, exists := c.m[k]; exists {
		c.mu.Unlock()
		return prev.v, false
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
	return v, true
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

// Keys returns the cached keys, newest insertion first (diagnostics and
// the store-verify CLI).
func (c *Cache) Keys() []Key {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Key, 0, len(c.m))
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}
