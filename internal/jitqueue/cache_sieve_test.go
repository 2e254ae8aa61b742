package jitqueue

import (
	"fmt"
	"sync"
	"testing"

	"github.com/jitbull/jitbull/internal/obs"
)

// TestCacheSieveDeterministicEviction pins the eviction order: victims
// are a pure function of the Get/Put sequence, never of map iteration
// order. Four single-unit entries fill a 4-unit cache; entries 0 and 2
// are touched; the next two inserts must evict exactly the untouched
// entries 1 and 3 (oldest-first), keeping the touched ones resident.
func TestCacheSieveDeterministicEviction(t *testing.T) {
	for trial := 0; trial < 20; trial++ { // map order varies per run; eviction must not
		c := NewCacheLimited(nil, 4)
		for i := 0; i < 4; i++ {
			c.Put(Key{byte(i)}, i, 1)
		}
		for _, i := range []int{0, 2} {
			if _, ok := c.Get(Key{byte(i)}); !ok {
				t.Fatalf("trial %d: entry %d missing before eviction", trial, i)
			}
		}
		c.Put(Key{10}, 10, 1) // evicts 1 (oldest unvisited)
		c.Put(Key{11}, 11, 1) // evicts 3 (next unvisited; 0 and 2 were visited)
		for _, i := range []int{0, 2, 10, 11} {
			if _, ok := c.Get(Key{byte(i)}); !ok {
				t.Errorf("trial %d: expected survivor %d was evicted", trial, i)
			}
		}
		for _, i := range []int{1, 3} {
			c.mu.RLock()
			_, ok := c.m[Key{byte(i)}]
			c.mu.RUnlock()
			if ok {
				t.Errorf("trial %d: expected victim %d still resident", trial, i)
			}
		}
	}
}

// TestCacheSieveSecondChance: with every entry visited, the hand sweeps
// once clearing marks and the second pass evicts the oldest — SIEVE
// degrades to FIFO, deterministically.
func TestCacheSieveSecondChance(t *testing.T) {
	c := NewCacheLimited(nil, 3)
	for i := 0; i < 3; i++ {
		c.Put(Key{byte(i)}, i, 1)
		c.Get(Key{byte(i)}) // mark everything visited
	}
	c.Put(Key{9}, 9, 1) // full sweep clears marks, evicts entry 0
	if _, ok := c.Get(Key{0}); ok {
		t.Error("oldest entry survived a full-visited sweep")
	}
	for _, i := range []int{1, 2, 9} {
		if _, ok := c.Get(Key{byte(i)}); !ok {
			t.Errorf("entry %d missing after second-chance sweep", i)
		}
	}
}

// memTier is an in-memory SecondTier for wiring tests.
type memTier struct {
	mu   sync.Mutex
	m    map[Key][]byte
	gets int
	puts int
}

func newMemTier() *memTier { return &memTier{m: map[Key][]byte{}} }

func (t *memTier) Get(k Key) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	d, ok := t.m[k]
	return d, ok
}

func (t *memTier) Put(k Key, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts++
	t.m[k] = append([]byte(nil), data...)
}

// stringCodec encodes string values as their bytes; anything else is
// unencodable.
type stringCodec struct{}

func (stringCodec) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("%T is not a string", v)
	}
	return []byte(s), nil
}

func (stringCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	return string(data), nil
}

// TestCacheWriteThroughAndPromote: a Put reaches the tier, and a fresh
// cache over the same tier serves the value from it (promoted into
// memory, so the second Get never touches the tier again).
func TestCacheWriteThroughAndPromote(t *testing.T) {
	tier := newMemTier()
	c1 := NewCache(nil)
	c1.AttachTier(tier, stringCodec{})
	c1.Put(Key{1}, "artifact", 8)
	if tier.puts != 1 {
		t.Fatalf("tier puts = %d, want 1", tier.puts)
	}

	reg := obs.NewRegistry()
	c2 := NewCache(reg) // "restarted process": cold memory, same tier
	c2.AttachTier(tier, stringCodec{})
	v, ok := c2.Get(Key{1})
	if !ok || v.(string) != "artifact" {
		t.Fatalf("tier-backed Get = %v, %v", v, ok)
	}
	getsAfterPromote := tier.gets
	if v, ok := c2.Get(Key{1}); !ok || v.(string) != "artifact" {
		t.Fatalf("promoted Get = %v, %v", v, ok)
	}
	if tier.gets != getsAfterPromote {
		t.Error("promoted entry still consults the tier")
	}
	// Unencodable values stay memory-only, and the refusal is counted:
	// every later process compiles this key cold.
	c2.Put(Key{2}, 42, 8)
	if _, ok := tier.m[Key{2}]; ok {
		t.Error("unencodable value reached the tier")
	}
	if n := reg.Counter("cache.tier_encode_drops").Value(); n != 1 {
		t.Errorf("cache.tier_encode_drops = %d, want 1", n)
	}
	// Undecodable tier records degrade to a miss.
	tier.m[Key{3}] = nil
	if _, ok := c2.Get(Key{3}); ok {
		t.Error("undecodable tier record served as a hit")
	}
}
