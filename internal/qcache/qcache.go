// Package qcache is the serving-layer cache between the HTTP server and the
// Q engine: a generic sharded LRU whose entries are keyed by
// (epoch, key) — one immutable published-state generation plus a
// caller-defined key within it — and a singleflight group that collapses
// concurrent identical misses into one computation.
//
// Epoch keying is what makes the cache correct without any invalidation
// protocol. Every published state generation of Q is immutable and carries
// a unique epoch: a cached result computed at epoch e is a pure
// function of (e, key), so it can never go stale — a registration or
// feedback write publishes a NEW epoch, under which every lookup simply
// misses. Announcing that epoch (SetLiveEpoch) drops every entry of an
// older one, and Put refuses them afterwards, so the cache holds only the
// live generation: a superseded generation stays reachable from it for no
// longer than the publish that replaces it. The write path takes each
// shard lock once, for the purge, and never waits for a query to finish.
//
// The cache itself knows nothing about Q: core wires one Cache per
// memoised computation (keyword expansion, view materialisation) and the
// server reads the counters for /stats.
package qcache

import (
	"sync"
	"sync/atomic"

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
// capacity (not those SetLiveEpoch purges); Entries is the current resident
// count and LiveEpochs the number of distinct epochs those entries were
// computed at: at most 1 on a quiesced instance. Only a reader that
// computed at a new epoch before its SetLiveEpoch landed can briefly make
// it 2.
type Counters struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Entries    int
	LiveEpochs int
}

// Cache is a sharded LRU over (epoch, key) entries with a fixed total
// capacity in entries. All methods are safe for concurrent use; each shard
// serialises on its own mutex, so unrelated keys rarely contend.
//
// Entries older than the epoch last announced via SetLiveEpoch are never
// resident once that call returns: it purges them, and Put refuses them.
// Eviction for capacity therefore sees only live entries and takes the
// plain LRU tail.
type Cache[V any] struct {
	shards []*cshard[V]
	live   atomic.Uint64 // announced epoch: no entry below it is kept

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

// New returns a cache holding at most capacity entries in total.
// capacity <= 0 returns nil: a nil *Cache is valid and behaves as a
// disabled cache (Get always misses without counting, Put is a no-op), so
// callers can wire the knob straight through.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
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
		c.shards[i] = &cshard[V]{cap: per, entries: make(map[Key]*entry[V], per)}
	}
	return c
}

// Instrument replaces the cache's activity counters with registry-owned
// ones (typically obtained from an obs.Registry), so hits, misses and
// evictions surface as metric families without a second accounting.
// Writer-side setup: call it before the cache is shared with concurrent
// users — the counters are swapped, not merged, and prior counts stay in
// the old ones. Nil arguments and a nil cache are no-ops.
func (c *Cache[V]) Instrument(hits, misses, evictions *obs.Counter) {
	if c == nil {
		return
	}
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

// SetLiveEpoch announces the currently published generation and drops
// every entry computed at an older epoch, in every shard, so the cache no
// longer keeps a superseded generation reachable. Callers invoke it on
// every publish with a non-decreasing epoch. The store precedes the purge:
// a Put that takes a shard lock after that shard's purge sees the new
// epoch and refuses a dead key, and one that took it before has its entry
// purged.
func (c *Cache[V]) SetLiveEpoch(epoch uint64) {
	if c == nil {
		return
	}
	c.live.Store(epoch)
	for _, s := range c.shards {
		s.mu.Lock()
		for k, e := range s.entries {
			if k.Epoch < epoch {
				s.remove(e)
			}
		}
		s.mu.Unlock()
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
	if c == nil {
		return zero, false
	}
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
// shard is at capacity. A key older than the live epoch is dropped: the
// reader that computed it started before the publish that superseded its
// generation, and keeping it would pin that generation again.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	if k.Epoch < c.live.Load() {
		s.mu.Unlock()
		return
	}
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

// Len returns the current number of resident entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Counters snapshots the cache's activity counters (all zero on a nil,
// disabled cache). LiveEpochs walks the shards, so it is O(entries);
// intended for /stats and shells, not hot paths.
func (c *Cache[V]) Counters() Counters {
	if c == nil {
		return Counters{}
	}
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
