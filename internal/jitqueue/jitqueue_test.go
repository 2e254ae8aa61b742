package jitqueue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/jitbull/jitbull/internal/obs"
)

func TestQueueRunsAllJobs(t *testing.T) {
	q := New(4, 64, nil)
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if !q.Submit(Job{Owner: "t", Run: func() { ran.Add(1) }}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	q.Close()
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d jobs, want 50", got)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after drain, want 0", d)
	}
	if q.HighWater() < 1 {
		t.Fatalf("high-water %d, want >= 1", q.HighWater())
	}
}

func TestQueueBackpressure(t *testing.T) {
	// One worker blocked on a gate; capacity 2. The 4th submit (1 running
	// + 2 queued) must be rejected, signalling the sync-compile fallback.
	gate := make(chan struct{})
	q := New(1, 2, nil)
	defer q.Close()
	if !q.Submit(Job{Owner: "t", Run: func() { <-gate }}) {
		t.Fatal("first submit rejected")
	}
	// Wait until the worker picked the job up so the channel is empty.
	for q.Depth() != 1 || len(q.jobs) != 0 {
		runtime.Gosched()
	}
	ok2 := q.Submit(Job{Owner: "t", Run: func() {}})
	ok3 := q.Submit(Job{Owner: "t", Run: func() {}})
	ok4 := q.Submit(Job{Owner: "t", Run: func() {}})
	if !ok2 || !ok3 {
		t.Fatalf("queued submits rejected: %v %v", ok2, ok3)
	}
	if ok4 {
		t.Fatal("submit beyond capacity accepted; want rejection (back-pressure)")
	}
	close(gate)
}

func TestQueueSubmitAfterCloseRejected(t *testing.T) {
	q := New(1, 4, nil)
	q.Close()
	if q.Submit(Job{Owner: "t", Run: func() {}}) {
		t.Fatal("submit accepted after Close")
	}
	q.Close() // idempotent
}

func TestNilQueueAndNilCache(t *testing.T) {
	var q *Queue
	if q.Submit(Job{Owner: "t", Run: func() {}}) {
		t.Fatal("nil queue accepted a job")
	}
	q.Close()
	if q.Depth() != 0 || q.HighWater() != 0 || q.Workers() != 0 || q.Panics() != nil {
		t.Fatal("nil queue accessors not zero")
	}
	var c *Cache
	if _, ok := c.Get(Key{1}); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(Key{1}, "v", 1)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache accessors not zero")
	}
}

func TestQueuePanicContainment(t *testing.T) {
	q := New(2, 8, nil)
	var ran atomic.Int64
	q.Submit(Job{Owner: "e1@boom", Run: func() { panic("kaboom") }})
	q.Submit(Job{Owner: "t", Run: func() { ran.Add(1) }})
	q.Close()
	if ran.Load() != 1 {
		t.Fatal("job after a panicking job did not run")
	}
	ps := q.Panics()
	if len(ps) != 1 || ps[0].Owner != "e1@boom" {
		t.Fatalf("panics = %v, want one owned by e1@boom", ps)
	}
	if ps[0].String() == "" {
		t.Fatal("empty panic rendering")
	}
}

func TestQueueMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	q := New(2, 8, reg)
	for i := 0; i < 5; i++ {
		q.Submit(Job{Owner: "t", Run: func() {}})
	}
	q.Close()
	if got := reg.Counter("jit.queue_enqueued").Value(); got != 5 {
		t.Fatalf("jit.queue_enqueued = %d, want 5", got)
	}
	if got := reg.Counter("jit.queue_jobs_done").Value(); got != 5 {
		t.Fatalf("jit.queue_jobs_done = %d, want 5", got)
	}
	if got := reg.Gauge("jit.queue_depth_hwm").Value(); got < 1 {
		t.Fatalf("jit.queue_depth_hwm = %d, want >= 1", got)
	}
}

func TestCacheFirstStoreWins(t *testing.T) {
	c := NewCache(nil)
	k := Key{42}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "first", 10)
	c.Put(k, "second", 99)
	v, ok := c.Get(k)
	if !ok || v != "first" {
		t.Fatalf("Get = %v,%v; want first,true", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("Len=%d Bytes=%d; want 1,10", c.Len(), c.Bytes())
	}
}

func TestCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(reg)
	c.Get(Key{1})
	c.Put(Key{1}, "v", 7)
	c.Get(Key{1})
	c.Get(Key{2})
	if got := reg.Counter("cache.hits").Value(); got != 1 {
		t.Fatalf("cache.hits = %d, want 1", got)
	}
	if got := reg.Counter("cache.misses").Value(); got != 2 {
		t.Fatalf("cache.misses = %d, want 2", got)
	}
	if got := reg.Gauge("cache.bytes").Value(); got != 7 {
		t.Fatalf("cache.bytes = %d, want 7", got)
	}
}

func TestQueueDepthNeverNegative(t *testing.T) {
	// Submit increments depth before the channel send, so a fast worker
	// finishing the job can never drive the gauge below zero.
	q := New(4, 16, nil)
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := q.Depth(); d < 0 {
				t.Errorf("depth went negative: %d", d)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		q.Submit(Job{Owner: "t", Run: func() {}}) // rejections under load are fine
	}
	q.Close()
	close(stop)
	poller.Wait()
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after drain, want 0", d)
	}
}

func TestCacheEvictionBound(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCacheLimited(reg, 100)
	for i := 0; i < 6; i++ {
		c.Put(Key{byte(i)}, i, 30)
		if b := c.Bytes(); b > 100 {
			t.Fatalf("bytes %d exceeded the 100-byte bound after put %d", b, i)
		}
	}
	if c.Len() > 3 {
		t.Errorf("Len = %d, want <= 3 (3 × 30 bytes fit under 100)", c.Len())
	}
	if got := reg.Counter("cache.evictions").Value(); got == 0 {
		t.Error("no evictions counted despite exceeding the bound")
	}
	// An entry larger than the whole bound is dropped outright.
	before := c.Len()
	c.Put(Key{99}, "huge", 200)
	if _, ok := c.Get(Key{99}); ok || c.Len() != before {
		t.Error("oversized entry was stored")
	}
	// An unbounded cache (maxBytes <= 0) never evicts.
	u := NewCacheLimited(nil, 0)
	for i := 0; i < 100; i++ {
		u.Put(Key{byte(i)}, i, 1<<20)
	}
	if u.Len() != 100 {
		t.Errorf("unbounded cache evicted: Len = %d, want 100", u.Len())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{byte(i % 16)}
				c.Put(k, i%16, 1)
				if v, ok := c.Get(k); !ok || v.(int) != i%16 {
					t.Errorf("goroutine %d: Get(%d) = %v,%v", g, i%16, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 16 {
		t.Fatalf("Len = %d, want 16", c.Len())
	}
}
