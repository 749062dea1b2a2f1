package steiner

// item is one queue entry: a cost and what it queues — a node in Dijkstra,
// a slot of the candidate pool in the top-k search. It is sixteen bytes, so
// a sift moves little and compares costs without a call.
type item struct {
	cost float64
	id   int32
}

// minHeap is a binary min-heap of items by cost, the one priority queue of
// the package (Dijkstra and the top-k Steiner search). Items of equal cost
// are ordered by tie when it is set — the rest of the top-k search's total
// order, consulted only on a cost tie — and are otherwise unordered. The
// sift procedures are the standard library heap's, so the pop order among
// items of equal cost is the one Dijkstra had when it ran on that package.
type minHeap struct {
	items []item
	tie   func(a, b int32) bool
}

func (h *minHeap) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing array.
func (h *minHeap) Reset() { h.items = h.items[:0] }

// less compares costs inline and calls out only on a tie.
func (h *minHeap) less(a, b *item) bool {
	return a.cost < b.cost || a.cost == b.cost && h.tied(a.id, b.id)
}

// tied orders two items of equal cost. It stays out of line so that less,
// which the sifts call at every level, is inlined.
//
//go:noinline
func (h *minHeap) tied(a, b int32) bool { return h.tie != nil && h.tie(a, b) }

func (h *minHeap) Push(x item) {
	h.items = appendPow2(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the least item. The heap must not be empty.
func (h *minHeap) Pop() item {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x := h.items[n]
	h.items = h.items[:n]
	return x
}

func (h *minHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(&h.items[j], &h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *minHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(&h.items[j2], &h.items[j1]) {
			j = j2 // right child
		}
		if !h.less(&h.items[j], &h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
