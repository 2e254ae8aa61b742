package jitqueue

import "testing"

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
