package qcache

import (
	"errors"
	"fmt"
	"strings"
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
				switch i % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Do(k, func() (int, error) { return i, nil })
				default:
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

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCoalesces proves N concurrent identical Do calls execute the
// function exactly once: the leader blocks until all other callers are
// counted as coalesced onto its pending entry, so none of them can have
// started a computation of its own.
func TestSingleflightCoalesces(t *testing.T) {
	c := New[int](64)
	const n = 16
	release := make(chan struct{})
	var computed atomic.Int64

	type result struct {
		v      int
		waited bool
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			v, waited, err := c.Do(Key{Epoch: 1, K: "q"}, func() (int, error) {
				computed.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- result{v, waited}
		}()
	}
	// Wait until the n-1 followers are parked on the leader's entry.
	waitFor(t, fmt.Sprintf("%d waiters parked", n-1), func() bool { return c.Counters().Coalesced == n-1 })
	if _, ok := c.Get(Key{Epoch: 1, K: "q"}); ok {
		t.Fatal("Get hit a pending entry")
	}
	close(release)
	waiters := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.v != 7 {
			t.Fatalf("result = %d, want 7", r.v)
		}
		if r.waited {
			waiters++
		}
	}
	if got := computed.Load(); got != 1 {
		t.Fatalf("function executed %d times, want 1", got)
	}
	if ctr := c.Counters(); ctr.Computes != 1 || ctr.Coalesced != n-1 || waiters != n-1 {
		t.Fatalf("computes=%d coalesced=%d waited=%d, want 1, %d and %d", ctr.Computes, ctr.Coalesced, waiters, n-1, n-1)
	}
}

// TestSingleflightDistinctKeys proves different keys (including the same string at
// different epochs) do not coalesce.
func TestSingleflightDistinctKeys(t *testing.T) {
	c := New[int](64)
	var wg sync.WaitGroup
	var computed atomic.Int64
	for e := uint64(1); e <= 4; e++ {
		wg.Add(1)
		go func(e uint64) {
			defer wg.Done()
			v, _, _ := c.Do(Key{Epoch: e, K: "same"}, func() (int, error) {
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

// TestSingleflightLeaderPanic pins the panic contract: the leader's panic propagates
// in the leader, waiters get a NON-NIL error (never a zero value
// masquerading as success), and the key is usable again afterwards.
func TestSingleflightLeaderPanic(t *testing.T) {
	c := New[int](64)
	k := Key{Epoch: 1, K: "boom"}
	release := make(chan struct{})

	waiterErr := make(chan error, 1)
	leaderPanicked := make(chan interface{}, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.Do(k, func() (int, error) {
			<-release
			panic("kaboom")
		})
	}()
	waitFor(t, "the leader started", func() bool { return c.Counters().Computes == 1 })
	go func() {
		_, _, err := c.Do(k, func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	waitFor(t, "the waiter parked", func() bool { return c.Counters().Coalesced == 1 })
	close(release)

	if pv := <-leaderPanicked; pv == nil {
		t.Fatal("leader's panic was swallowed")
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("waiter's error = %v, want one naming the leader's panic", err)
	}
	// The key must not be wedged: a fresh Do executes normally.
	v, _, err := c.Do(k, func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("post-panic Do = (%d, %v), want (9, nil)", v, err)
	}
}

// TestDoRetains pins that Do keeps what it computed: later Do calls and
// Gets answer from the entry without running fn.
func TestDoRetains(t *testing.T) {
	c := New[int](64)
	k := Key{Epoch: 1, K: "k"}
	n := 0
	for i := 0; i < 3; i++ {
		v, waited, err := c.Do(k, func() (int, error) { n++; return n, nil })
		if v != 1 || waited || err != nil {
			t.Fatalf("Do #%d = (%d, %v, %v), want (1, false, nil)", i, v, waited, err)
		}
	}
	if n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if v, ok := c.Get(k); !ok || v != 1 {
		t.Fatalf("Get = (%d, %v), want (1, true)", v, ok)
	}
	if ctr := c.Counters(); ctr.Computes != 1 || ctr.Coalesced != 0 || ctr.Entries != 1 {
		t.Fatalf("counters = %+v, want computes=1 coalesced=0 entries=1", ctr)
	}
}

// TestDoAfterPutRunsNothing closes the window between a caller's Get miss
// and its Do: a Put that lands in between is returned as is, and Do counts
// neither a compute nor a coalesced wait.
func TestDoAfterPutRunsNothing(t *testing.T) {
	c := New[int](64)
	k := Key{Epoch: 1, K: "k"}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 5)
	v, waited, err := c.Do(k, func() (int, error) {
		t.Error("fn ran for a resident key")
		return 0, nil
	})
	if v != 5 || waited || err != nil {
		t.Fatalf("Do = (%d, %v, %v), want (5, false, nil)", v, waited, err)
	}
	if ctr := c.Counters(); ctr.Computes != 0 || ctr.Coalesced != 0 || ctr.Hits != 0 || ctr.Misses != 1 {
		t.Fatalf("counters = %+v, want misses=1 and nothing else counted", ctr)
	}
}

// TestDoErrorIsNotCached pins that a failed computation leaves no entry:
// its error reaches the caller, and the next Do runs fn again.
func TestDoErrorIsNotCached(t *testing.T) {
	c := New[int](64)
	k := Key{Epoch: 1, K: "k"}
	boom := errors.New("boom")
	if _, _, err := c.Do(k, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ctr := c.Counters(); ctr.Entries != 0 {
		t.Fatalf("a failed computation left %d entries", ctr.Entries)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("a failed computation is resident")
	}
	v, _, err := c.Do(k, func() (int, error) { return 3, nil })
	if v != 3 || err != nil {
		t.Fatalf("retry Do = (%d, %v), want (3, nil)", v, err)
	}
	if got := c.Counters().Computes; got != 2 {
		t.Fatalf("computes = %d, want 2", got)
	}
}

// TestEvictedPendingEntryServesItsWaiters evicts a pending entry under
// capacity pressure: the leader and its waiter still get the computed
// value, and nothing of the flight stays in the cache.
func TestEvictedPendingEntryServesItsWaiters(t *testing.T) {
	c := New[int](1) // one shard of one entry
	k := Key{Epoch: 1, K: "slow"}
	release := make(chan struct{})
	type result struct {
		v      int
		waited bool
		err    error
	}
	results := make(chan result, 2)
	do := func() {
		v, waited, err := c.Do(k, func() (int, error) {
			<-release
			return 11, nil
		})
		results <- result{v, waited, err}
	}
	go do()
	waitFor(t, "the leader started", func() bool { return c.Counters().Computes == 1 })
	go do()
	waitFor(t, "the waiter parked", func() bool { return c.Counters().Coalesced == 1 })

	c.Put(Key{Epoch: 1, K: "other"}, 1) // evicts the pending entry
	if ev := c.Counters().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	close(release)
	waited := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.v != 11 || r.err != nil {
			t.Fatalf("Do = (%d, %v), want (11, nil)", r.v, r.err)
		}
		if r.waited {
			waited++
		}
	}
	if waited != 1 {
		t.Fatalf("%d callers waited, want 1", waited)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("the evicted entry came back")
	}
	if v, ok := c.Get(Key{Epoch: 1, K: "other"}); !ok || v != 1 {
		t.Fatalf("the entry that evicted it = (%d, %v), want (1, true)", v, ok)
	}
	if ctr := c.Counters(); ctr.Entries != 1 {
		t.Fatalf("entries = %d, want 1", ctr.Entries)
	}
	// A new Do computes afresh: no stale pending marker is left behind.
	v, waitedAgain, err := c.Do(k, func() (int, error) { return 12, nil })
	if v != 12 || waitedAgain || err != nil {
		t.Fatalf("Do after eviction = (%d, %v, %v), want (12, false, nil)", v, waitedAgain, err)
	}
}
