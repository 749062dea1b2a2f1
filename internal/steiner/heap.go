package steiner

// minHeap is a binary min-heap over a typed slice, ordered by less. It is
// the one priority queue of the package (Dijkstra and the top-k Steiner
// search): items are stored by value, so a push never boxes through an
// interface. The sift procedures are the standard library heap's, so the
// pop order among items that less treats as equal is the one Dijkstra had
// when it ran on that package.
type minHeap[T any] struct {
	items []T
	less  func(a, b *T) bool
}

func (h *minHeap[T]) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing array.
func (h *minHeap[T]) Reset() { h.items = h.items[:0] }

func (h *minHeap[T]) Push(x T) {
	h.items = appendPow2(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the least item. The heap must not be empty.
func (h *minHeap[T]) Pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x := h.items[n]
	h.items = h.items[:n]
	return x
}

func (h *minHeap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(&h.items[j], &h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *minHeap[T]) down(i, n int) {
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
