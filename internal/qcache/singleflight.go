package qcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qint/internal/obs"
)

// Group collapses concurrent identical computations: when N goroutines Do
// the same Key while no result is cached yet, exactly one executes the
// function and the other N-1 block and share its result. Because keys
// carry the epoch, two generations' computations for the same logical key
// never collapse into each other.
//
// The zero Group is ready to use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[Key]*call[V]

	execs     atomic.Uint64
	coalesced atomic.Uint64
	waiting   atomic.Int64

	// Optional registry mirrors (Instrument): incremented alongside the
	// atomics so the zero Group stays ready to use while an instrumented
	// one surfaces its activity as metric families.
	execsC     *obs.Counter
	coalescedC *obs.Counter
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do executes fn under k, coalescing with any in-flight execution of the
// same key: the first caller runs fn, later callers block until it
// finishes and receive the same value and error. The result is handed to
// every caller of the flight but is NOT retained: a Do after the flight
// completes executes fn again (pair the group with a Cache for retention).
func (g *Group[V]) Do(k Key, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[Key]*call[V])
	}
	if c, ok := g.calls[k]; ok {
		g.mu.Unlock()
		g.coalesced.Add(1)
		g.coalescedC.Inc()
		g.waiting.Add(1)
		<-c.done
		g.waiting.Add(-1)
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[k] = c
	g.mu.Unlock()

	g.execs.Add(1)
	g.execsC.Inc()
	// Unregister and release waiters even if fn panics — a stuck call entry
	// would otherwise block every later Do of the same key forever. A panic
	// propagates in the leader (its server/recover layer attributes it); the
	// waiters must NOT see (zero value, nil error) as if the computation
	// succeeded, so they get an error naming the panic instead.
	normal := false
	defer func() {
		if !normal && c.err == nil {
			c.err = fmt.Errorf("qcache: singleflight leader for %q panicked: %v", k.K, recover())
			// Note: recover() here does not stop the panic — it is re-raised
			// below so the leader's caller still sees it.
			defer func() { panic(c.err) }()
		}
		g.mu.Lock()
		delete(g.calls, k)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	normal = true
	return c.val, c.err
}

// Instrument attaches registry-owned mirror counters for executions and
// coalesced waits. Writer-side setup: call it before the group sees
// concurrent Do calls. Nil arguments clear nothing (obs counters are
// nil-safe, so an un-instrumented group pays one nil check per event).
func (g *Group[V]) Instrument(execs, coalesced *obs.Counter) {
	g.execsC = execs
	g.coalescedC = coalesced
}

// Execs returns how many times Do actually executed a function (as opposed
// to coalescing onto another caller's flight). Only tests call Execs,
// Coalesced and Waiting: core's TestConcurrentIdenticalQueriesComputeOnce
// checks request coalescing through them.
func (g *Group[V]) Execs() uint64 { return g.execs.Load() }

// Coalesced returns how many Do calls were served by piggybacking on an
// in-flight execution instead of executing themselves.
func (g *Group[V]) Coalesced() uint64 { return g.coalesced.Load() }

// Waiting returns how many callers are currently blocked on an in-flight
// execution (test observability: a coalescing test can wait until all its
// goroutines are parked before releasing the leader).
func (g *Group[V]) Waiting() int { return int(g.waiting.Load()) }
