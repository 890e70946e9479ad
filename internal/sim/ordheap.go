package sim

// ordHeap is a binary min-heap over value entries. It is the single heap
// implementation behind both the timer queue and the quantum-completion
// queue: hand-rolled (rather than container/heap) so the hot path is free of
// interface calls, and generic so it is written — and tested — exactly once.
//
// E is a small value type; entries are stored inline in one slice, so the
// heap itself never allocates beyond amortized slice growth, which the
// engine's steady state warms once.
type ordHeap[E heapOrd[E]] struct {
	a []E
}

// heapOrd is the ordering contract for heap entries: a.lessThan(b) reports
// whether a must pop before b. It must be a strict weak ordering and, for
// deterministic engines, a total order (ties broken by a sequence number or
// thread id).
type heapOrd[E any] interface {
	lessThan(E) bool
}

func (h *ordHeap[E]) len() int { return len(h.a) }

// peek returns the minimum entry. It must not be called on an empty heap.
func (h *ordHeap[E]) peek() E { return h.a[0] }

func (h *ordHeap[E]) push(x E) {
	h.a = append(h.a, x)
	h.siftUp(len(h.a) - 1)
}

func (h *ordHeap[E]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.a[i].lessThan(h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *ordHeap[E]) pop() E {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	var zero E
	h.a[last] = zero // release any pointers held by the entry
	h.a = h.a[:last]
	h.siftDown(0)
	return top
}

// removeAt deletes the entry at index i and restores the heap invariant.
func (h *ordHeap[E]) removeAt(i int) {
	last := len(h.a) - 1
	h.a[i] = h.a[last]
	var zero E
	h.a[last] = zero
	h.a = h.a[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
}

func (h *ordHeap[E]) siftDown(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.a[l].lessThan(h.a[smallest]) {
			smallest = l
		}
		if r < n && h.a[r].lessThan(h.a[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}

// heapify re-establishes the heap invariant over the whole slice in O(n).
// On a slice that is already heap-ordered it only compares: every siftDown
// returns at its first level.
func (h *ordHeap[E]) heapify() {
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
