package steiner

import (
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// Scratch reuse. A search's flat buffers outlive the call in a free list
// of at most min(GOMAXPROCS, maxFreeSearches) searches, which — unlike the
// runtime's object pool — the collector never empties. Every buffer grows
// in powers of two, and on release is set to exactly its class capacity:
// the largest power of two any search has needed for that buffer, which
// only rises and is capped by bufBytes. The list is LIFO, so the search a
// call takes is the one released last, which holds the current classes.
// The bytes a call allocates are then a function of its input and of the
// calls before it — not of which search it got, of which goroutine ran the
// calls before, or of when the collector ran.

// maxFreeSearches caps the free list; maxRetainedBytes caps what all of it
// retains, so one search keeps at most perSearchBytes.
const (
	maxFreeSearches  = 4
	maxRetainedBytes = 8 << 20
	perSearchBytes   = maxRetainedBytes / maxFreeSearches
)

// The buffers of a search, each with its own class.
const (
	bufDist = iota
	bufDijkstra
	bufArena
	bufQueue
	bufExts
	bufHead
	bufMark
	bufSibs
	bufBest
	bufStack
	bufEdgesA
	bufEdgesB
	bufNodes
	numBufs
)

// bufBytes is the most one search retains of each buffer: a quarter of
// perSearchBytes each for the distance table, the arena and the queue, an
// eighth for the extension lists, and the rest for the per-node tables and
// the walk buffers. On the benchmark's workloads a search needs a third to
// a half of it.
var bufBytes = [numBufs]int{
	bufDist:     perSearchBytes / 4,
	bufArena:    perSearchBytes / 4,
	bufQueue:    perSearchBytes / 4,
	bufExts:     perSearchBytes / 8,
	bufDijkstra: perSearchBytes / 32,
	bufHead:     perSearchBytes / 32,
	bufMark:     perSearchBytes / 32,
	bufSibs:     perSearchBytes / 256,
	bufBest:     perSearchBytes / 256,
	bufStack:    perSearchBytes / 256,
	bufEdgesA:   perSearchBytes / 256,
	bufEdgesB:   perSearchBytes / 256,
	bufNodes:    perSearchBytes / 256,
}

var free struct {
	sync.Mutex
	list  []*search
	class [numBufs]int // element capacity per buffer
}

func acquireSearch() *search {
	free.Lock()
	if n := len(free.list); n > 0 {
		s := free.list[n-1]
		free.list = free.list[:n-1]
		free.Unlock()
		return s
	}
	free.Unlock()
	s := new(search)
	s.pq.less = s.less
	s.dq.less = nodeItemLess
	return s
}

func releaseSearch(s *search) {
	free.Lock()
	defer free.Unlock()
	keep := len(free.list) < min(runtime.GOMAXPROCS(0), maxFreeSearches)
	s.dist = refit(s.dist, bufDist, keep)
	s.dq.items = refit(s.dq.items, bufDijkstra, keep)
	s.arena = refit(s.arena, bufArena, keep)
	s.pq.items = refit(s.pq.items, bufQueue, keep)
	s.exts = refit(s.exts, bufExts, keep)
	s.head = refit(s.head, bufHead, keep)
	s.mark = refit(s.mark, bufMark, keep)
	s.sibs = refit(s.sibs, bufSibs, keep)
	s.best = refit(s.best, bufBest, keep)
	s.stack = refit(s.stack, bufStack, keep)
	s.ea = refit(s.ea, bufEdgesA, keep)
	s.eb = refit(s.eb, bufEdgesB, keep)
	s.treeNodes = refit(s.treeNodes, bufNodes, keep)
	if keep {
		free.list = append(free.list, s)
	}
}

// refit raises buffer b's class to buf's capacity (within its byte cap) and
// returns buf emptied at exactly the class capacity, or nil when the search
// is not kept. free's lock is held.
func refit[T any](buf []T, b int, keep bool) []T {
	var zero T
	limit := floorPow2(bufBytes[b] / int(unsafe.Sizeof(zero)))
	c := &free.class[b]
	*c = max(*c, min(cap(buf), limit))
	if !keep {
		return nil
	}
	if cap(buf) != *c {
		return make([]T, 0, *c)
	}
	return buf[:0]
}

// grown returns s resliced to length n, reallocated at the next power of
// two when its capacity is short. The content is not preserved.
func grown[T any](s []T, n int) []T {
	if n > cap(s) {
		s = make([]T, n, ceilPow2(n))
	}
	return s[:n]
}

// appendPow2 is append that, when s is full, doubles to the next power of
// two instead of following the runtime's growth curve.
func appendPow2[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		ns := make([]T, len(s), ceilPow2(max(len(s)+1, 8)))
		copy(ns, s)
		s = ns
	}
	return append(s, x)
}

func ceilPow2(n int) int { return 1 << bits.Len(uint(n-1)) }

func floorPow2(n int) int { return 1 << (bits.Len(uint(n)) - 1) }
