// Package qcache is the serving-layer cache between the HTTP server and the
// Q engine: a generic sharded LRU whose entries are keyed by
// (epoch, key) — one immutable published-state generation plus a
// caller-defined key within it. Its miss path, Do, coalesces concurrent
// identical misses into one computation: the first caller leaves a pending
// entry that later callers wait on.
//
// The cache needs no invalidation protocol because it never outlives what
// it memoises: core gives every published generation of Q its own caches,
// so a value computed at epoch e is a pure function of (e, key) and dies
// with that generation. A registration or feedback write publishes a new
// generation with new, empty caches, and the superseded ones become
// garbage together with the state they were computed from. Keys still
// carry the epoch, which the shard hash folds in.
//
// The cache itself knows nothing about Q: core wires one Cache per
// memoised computation (keyword expansion, view materialisation) and the
// server reads the counters for /stats.
package qcache

import (
	"fmt"
	"sync"

	"qint/internal/obs"
)

// Key identifies one cache entry: the published-state epoch the value was
// computed at plus a caller-defined key within that generation.
type Key struct {
	Epoch uint64
	K     string
}

// Counters is a point-in-time snapshot of a cache's activity counters.
// Hits and Misses count Get outcomes; Computes counts the computations Do
// ran and Coalesced the Do calls that waited on one already running
// (Computes + Coalesced <= Misses when every Do follows a Get miss);
// Evictions counts entries dropped for capacity; Entries is the current
// resident count and LiveEpochs the number of distinct epochs those
// entries were computed at (at most 1 for a cache that belongs to one
// generation).
type Counters struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Computes   uint64 `json:"computes"`
	Coalesced  uint64 `json:"coalesced"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	LiveEpochs int    `json:"live_epochs"`
}

// Cache is a sharded LRU over (epoch, key) entries with a fixed total
// capacity in entries. All methods are safe for concurrent use; each shard
// serialises on its own mutex, so unrelated keys rarely contend. A full
// shard evicts its LRU tail, pending or not.
type Cache[V any] struct {
	shards []*cshard[V]

	// Activity counters. New allocates private ones; Instrument swaps in
	// registry-owned counters so the cache's activity is a first-class
	// metric family and Counters() becomes a view over the registry.
	hits      *obs.Counter
	misses    *obs.Counter
	computes  *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
}

// numShards is the fixed shard count for caches large enough to split.
const numShards = 16

// entry is one resident value, or a pending one: while Do's leader
// computes it, done is non-nil and Get misses it. Under the shard lock the
// leader sets val and err, closes done and clears it; its waiters then
// read the outcome from the entry.
type entry[V any] struct {
	key        Key
	val        V
	done       chan struct{}
	err        error
	prev, next *entry[V] // LRU list; head = most recent
}

type cshard[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*entry[V]
	head    *entry[V]
	tail    *entry[V]
}

// New returns a cache holding at most capacity entries in total; capacity
// must be positive. The shard maps start empty and grow with use: core
// makes two caches per publish, and presizing them would allocate their
// full capacity every time.
func New[V any](capacity int) *Cache[V] {
	n := numShards
	if capacity < n {
		n = capacity
	}
	c := &Cache[V]{
		shards:    make([]*cshard[V], n),
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		computes:  &obs.Counter{},
		coalesced: &obs.Counter{},
		evictions: &obs.Counter{},
	}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = &cshard[V]{cap: per, entries: make(map[Key]*entry[V])}
	}
	return c
}

// Instrument replaces the cache's activity counters with registry-owned
// ones (typically obtained from an obs.Registry), so hits, misses,
// computes, coalesced waits and evictions surface as metric families
// without a second accounting. Writer-side setup: call it before the cache
// is shared with concurrent users — the counters are swapped, not merged,
// and prior counts stay in the old ones.
func (c *Cache[V]) Instrument(hits, misses, computes, coalesced, evictions *obs.Counter) {
	c.hits, c.misses, c.computes, c.coalesced, c.evictions = hits, misses, computes, coalesced, evictions
}

// shard picks the shard for a key: FNV-1a over the string key folded
// with the epoch, so one epoch's keys spread across all shards.
func (c *Cache[V]) shard(k Key) *cshard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.K); i++ {
		h ^= uint64(k.K[i])
		h *= prime64
	}
	h ^= k.Epoch
	h *= prime64
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value for k, marking it most-recently-used. A
// pending entry is a miss.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok || e.done != nil {
		s.mu.Unlock()
		c.misses.Inc()
		return zero, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Put inserts (or refreshes) the value for k, evicting the LRU tail if the
// shard is at capacity. A pending key stays pending: its leader's outcome
// replaces the value.
func (c *Cache[V]) Put(k Key, v V) {
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.val = v
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	c.insert(s, &entry[V]{key: k, val: v})
	s.mu.Unlock()
}

// Do is the miss path: it returns k's resident value, or waits for the
// computation of k already running, or runs fn as that computation. A
// leader inserts a pending entry, runs fn outside the lock and fills the
// entry; on error the entry goes, so the next Do runs fn again. waited
// reports a caller that waited on another's computation. Do counts
// computes and coalesced waits, but no hits or misses: callers Get first.
//
// A panic in fn propagates in the leader; its waiters get an error naming
// the panic, never a zero value that looks like success, and the key is
// usable again. A pending entry evicted for capacity still hands its
// outcome to its waiters, and its leader does not put it back.
func (c *Cache[V]) Do(k Key, fn func() (V, error)) (v V, waited bool, err error) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok && e.done == nil {
		s.moveToFront(e)
		v = e.val
		s.mu.Unlock()
		return v, false, nil
	}
	if ok {
		done := e.done
		s.mu.Unlock()
		c.coalesced.Inc()
		<-done
		s.mu.Lock()
		defer s.mu.Unlock()
		return e.val, true, e.err
	}
	e = &entry[V]{key: k, done: make(chan struct{})}
	c.insert(s, e)
	s.mu.Unlock()
	c.computes.Inc()

	returned := false
	defer func() {
		if !returned {
			err = fmt.Errorf("qcache: computation of %q panicked: %v", k.K, recover())
		}
		s.mu.Lock()
		e.val, e.err = v, err
		switch {
		case s.entries[k] != e: // evicted while pending
		case err == nil:
			s.moveToFront(e)
		default:
			s.remove(e)
		}
		close(e.done)
		e.done = nil
		s.mu.Unlock()
		if !returned {
			panic(err)
		}
	}()
	v, err = fn()
	returned = true
	return v, false, err
}

// insert puts a new entry at the front of s, first evicting (and
// counting) LRU tails while s is full. Caller holds s.mu.
func (c *Cache[V]) insert(s *cshard[V], e *entry[V]) {
	evicted := int64(0)
	for len(s.entries) >= s.cap {
		s.remove(s.tail)
		evicted++
	}
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	s.entries[e.key] = e
	s.pushFront(e)
}

func (s *cshard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cshard[V]) remove(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	delete(s.entries, e.key)
}

func (s *cshard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}

// Counters snapshots the cache's activity counters. Entries and
// LiveEpochs count resident entries, not pending ones, and walk the
// shards, so they are O(entries); intended for /stats and shells, not hot
// paths.
func (c *Cache[V]) Counters() Counters {
	epochs := make(map[uint64]struct{})
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for k, e := range s.entries {
			if e.done == nil {
				n++
				epochs[k.Epoch] = struct{}{}
			}
		}
		s.mu.Unlock()
	}
	return Counters{
		Hits:       uint64(c.hits.Load()),
		Misses:     uint64(c.misses.Load()),
		Computes:   uint64(c.computes.Load()),
		Coalesced:  uint64(c.coalesced.Load()),
		Evictions:  uint64(c.evictions.Load()),
		Entries:    n,
		LiveEpochs: len(epochs),
	}
}
