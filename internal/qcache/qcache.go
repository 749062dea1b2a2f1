// Package qcache is the serving-layer cache between the HTTP server and the
// Q engine: a generic sharded LRU whose entries are keyed by
// (epoch, key) — one immutable published-state generation plus a
// caller-defined key within it — and a singleflight group that collapses
// concurrent identical misses into one computation.
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
// Hits and Misses count Get outcomes; Evictions counts entries dropped for
// capacity; Entries is the current resident count and LiveEpochs the
// number of distinct epochs those entries were computed at (at most 1 for
// a cache that belongs to one generation).
type Counters struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Entries    int
	LiveEpochs int
}

// Cache is a sharded LRU over (epoch, key) entries with a fixed total
// capacity in entries. All methods are safe for concurrent use; each shard
// serialises on its own mutex, so unrelated keys rarely contend. A full
// shard evicts its LRU tail.
type Cache[V any] struct {
	shards []*cshard[V]

	// Activity counters. New allocates private ones; Instrument swaps in
	// registry-owned counters so the cache's activity is a first-class
	// metric family and Counters() becomes a view over the registry.
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// numShards is the fixed shard count for caches large enough to split.
const numShards = 16

type entry[V any] struct {
	key        Key
	val        V
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
		evictions: &obs.Counter{},
	}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = &cshard[V]{cap: per, entries: make(map[Key]*entry[V])}
	}
	return c
}

// Instrument replaces the cache's activity counters with registry-owned
// ones (typically obtained from an obs.Registry), so hits, misses and
// evictions surface as metric families without a second accounting.
// Writer-side setup: call it before the cache is shared with concurrent
// users — the counters are swapped, not merged, and prior counts stay in
// the old ones. Nil arguments are no-ops.
func (c *Cache[V]) Instrument(hits, misses, evictions *obs.Counter) {
	if hits != nil {
		c.hits = hits
	}
	if misses != nil {
		c.misses = misses
	}
	if evictions != nil {
		c.evictions = evictions
	}
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

// Get returns the cached value for k, marking it most-recently-used.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
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
// shard is at capacity.
func (c *Cache[V]) Put(k Key, v V) {
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.val = v
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	evicted := int64(0)
	for len(s.entries) >= s.cap {
		s.remove(s.tail)
		evicted++
	}
	e := &entry[V]{key: k, val: v}
	s.entries[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
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

// Counters snapshots the cache's activity counters. LiveEpochs walks the
// shards, so it is O(entries); intended for /stats and shells, not hot
// paths.
func (c *Cache[V]) Counters() Counters {
	epochs := make(map[uint64]struct{})
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		for k := range s.entries {
			epochs[k.Epoch] = struct{}{}
		}
		s.mu.Unlock()
	}
	return Counters{
		Hits:       uint64(c.hits.Load()),
		Misses:     uint64(c.misses.Load()),
		Evictions:  uint64(c.evictions.Load()),
		Entries:    n,
		LiveEpochs: len(epochs),
	}
}
