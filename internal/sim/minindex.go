package sim

import "cmp"

// MinIndex is a tournament tree over n keyed slots: Set changes one slot's
// key in O(log n) and Min names the slot with the smallest key in O(1),
// the lowest slot on equal keys. The cluster keeps one over its engines'
// next-event times, and the fleet's indexed balancers one over their
// replicas' load keys.
//
// The layout is the flat bottom-up segment tree: slot i is node n+i, node
// p's children are 2p and 2p+1, and node 1 is the root. That places every
// slot under the root for any n, without padding leaves, but a subtree need
// not cover a contiguous run of slots, so each node stores its winner's slot
// next to the key and ties compare slots rather than tree position.
type MinIndex[K cmp.Ordered] struct {
	n    int
	node []minNode[K] // node[0] unused; node[n+i] is slot i's leaf
}

type minNode[K cmp.Ordered] struct {
	key  K
	slot int32
}

// beats reports whether a wins over b: a smaller key, or the lower slot on
// equal keys.
func (a minNode[K]) beats(b minNode[K]) bool {
	return a.key < b.key || (a.key == b.key && a.slot < b.slot)
}

// NewMinIndex returns an index over n slots, every one keyed init.
func NewMinIndex[K cmp.Ordered](n int, init K) *MinIndex[K] {
	m := &MinIndex[K]{n: n, node: make([]minNode[K], 2*n)}
	for i := 0; i < n; i++ {
		m.node[n+i] = minNode[K]{key: init, slot: int32(i)}
	}
	for p := n - 1; p >= 1; p-- {
		m.node[p] = m.winner(p)
	}
	return m
}

// winner is the better of node p's two children.
func (m *MinIndex[K]) winner(p int) minNode[K] {
	l, r := m.node[2*p], m.node[2*p+1]
	if r.beats(l) {
		return r
	}
	return l
}

// Set changes slot i's key and replays the matches on its root path,
// stopping at the first node whose winner is unchanged.
func (m *MinIndex[K]) Set(i int, k K) {
	p := m.n + i
	m.node[p].key = k
	for p >>= 1; p >= 1; p >>= 1 {
		w := m.winner(p)
		if w == m.node[p] {
			return
		}
		m.node[p] = w
	}
}

// Key returns slot i's key.
func (m *MinIndex[K]) Key(i int) K { return m.node[m.n+i].key }

// Min returns the slot holding the smallest key, the lowest such slot on
// ties; -1 when the index has no slots.
func (m *MinIndex[K]) Min() int {
	if m.n == 0 {
		return -1
	}
	return int(m.node[1].slot)
}
