package qcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutAndCounters(t *testing.T) {
	c := New[int](64)
	k := Key{Epoch: 1, K: "a"}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 42)
	v, ok := c.Get(k)
	if !ok || v != 42 {
		t.Fatalf("got (%d,%v), want (42,true)", v, ok)
	}
	// Same string key at another epoch is a distinct entry.
	k2 := Key{Epoch: 2, K: "a"}
	if _, ok := c.Get(k2); ok {
		t.Fatal("epoch must partition the key space")
	}
	c.Put(k2, 43)
	if v, _ := c.Get(k); v != 42 {
		t.Fatal("epoch 1 entry clobbered by epoch 2 put")
	}
	ctr := c.Counters()
	if ctr.Hits != 2 || ctr.Misses != 2 || ctr.Entries != 2 || ctr.LiveEpochs != 2 {
		t.Fatalf("counters = %+v, want hits=2 misses=2 entries=2 liveEpochs=2", ctr)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity below numShards collapses to capacity shards of 1 entry each;
	// use a single-shard cache so the LRU order is fully observable.
	c := New[int](1)
	if len(c.shards) != 1 || c.shards[0].cap != 1 {
		t.Fatalf("want 1 shard of cap 1, got %d shards cap %d", len(c.shards), c.shards[0].cap)
	}
	c.Put(Key{1, "a"}, 1)
	c.Put(Key{1, "b"}, 2) // evicts a
	if _, ok := c.Get(Key{1, "a"}); ok {
		t.Fatal("expected a evicted")
	}
	if v, ok := c.Get(Key{1, "b"}); !ok || v != 2 {
		t.Fatal("expected b resident")
	}
	if ev := c.Counters().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestConcurrentHammer(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Epoch: uint64(1 + i%3), K: fmt.Sprintf("k%d", i%200)}
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
				if i%500 == 0 {
					c.Counters()
				}
			}
		}(w)
	}
	wg.Wait()
	ctr := c.Counters()
	if ctr.Entries > 128+numShards { // shard rounding slack
		t.Fatalf("entries %d exceeds capacity", ctr.Entries)
	}
}

// TestSingleflightCoalesces proves N concurrent identical Do calls execute
// the function exactly once: the leader blocks until all other callers are
// parked on its flight, so none of them can have started a flight of its
// own.
func TestSingleflightCoalesces(t *testing.T) {
	var g Group[int]
	const n = 16
	release := make(chan struct{})
	var computed atomic.Int64

	results := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			v, err := g.Do(Key{Epoch: 1, K: "q"}, func() (int, error) {
				computed.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	// Wait until the n-1 followers are parked on the leader's flight.
	deadline := time.Now().Add(10 * time.Second)
	for g.Waiting() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters parked", g.Waiting(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		if v := <-results; v != 7 {
			t.Fatalf("result = %d, want 7", v)
		}
	}
	if got := computed.Load(); got != 1 {
		t.Fatalf("function executed %d times, want 1", got)
	}
	if g.Execs() != 1 || g.Coalesced() != n-1 {
		t.Fatalf("execs=%d coalesced=%d, want 1 and %d", g.Execs(), g.Coalesced(), n-1)
	}
}

// TestSingleflightDistinctKeys proves different keys (including the same
// string at different epochs) do not coalesce.
func TestSingleflightDistinctKeys(t *testing.T) {
	var g Group[int]
	var wg sync.WaitGroup
	var computed atomic.Int64
	for e := uint64(1); e <= 4; e++ {
		wg.Add(1)
		go func(e uint64) {
			defer wg.Done()
			v, _ := g.Do(Key{Epoch: e, K: "same"}, func() (int, error) {
				computed.Add(1)
				return int(e), nil
			})
			if v != int(e) {
				t.Errorf("epoch %d got %d", e, v)
			}
		}(e)
	}
	wg.Wait()
	if computed.Load() != 4 {
		t.Fatalf("computed %d, want 4 (one per epoch)", computed.Load())
	}
}

// TestSingleflightLeaderPanic pins the panic contract: the leader's panic
// propagates in the leader, waiters get a NON-NIL error (never a zero
// value masquerading as success), and the key is usable again afterwards.
func TestSingleflightLeaderPanic(t *testing.T) {
	var g Group[int]
	k := Key{Epoch: 1, K: "boom"}
	release := make(chan struct{})

	waiterErr := make(chan error, 1)
	leaderPanicked := make(chan interface{}, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		g.Do(k, func() (int, error) {
			<-release
			panic("kaboom")
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.Execs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, err := g.Do(k, func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	for g.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if pv := <-leaderPanicked; pv == nil {
		t.Fatal("leader's panic was swallowed")
	}
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter saw nil error after the leader panicked")
	}
	// The key must not be wedged: a fresh Do executes normally.
	v, err := g.Do(k, func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("post-panic Do = (%d, %v), want (9, nil)", v, err)
	}
}

// TestSingleflightSequentialReexecutes pins that the group does not retain
// results: retention is the Cache's job.
func TestSingleflightSequentialReexecutes(t *testing.T) {
	var g Group[int]
	n := 0
	for i := 0; i < 3; i++ {
		g.Do(Key{1, "k"}, func() (int, error) { n++; return n, nil })
	}
	if n != 3 {
		t.Fatalf("executed %d times, want 3", n)
	}
}
