package fleet

import "math"

// Indexed balancers: O(log N) picks for 1024-replica fleets.
//
// A linear policy rescans every replica per arrival — O(N) per pick, the
// fleet-level twin of the O(T) scheduler the engine's heap replaced. At 1024
// replicas that scan dominates the driver loop, so the production policies
// keep a tournament tree (a flat segment tree) over per-replica keys
// instead: each leaf holds one replica's (paused, outstanding, index) packed
// into a single uint64, each internal node the minimum of its children, so
// the best replica is always at the root. The driver mirrors state changes
// into the tree — outstanding counts on inject/complete, pause bits from the
// collector's pause-transition hook — at O(log N) per update, and pick reads
// the root in O(1).
//
// Key packing is what makes one integer compare implement the whole policy
// order: paused occupies the highest bit considered, then the outstanding
// count, then the replica index. Minimizing the packed key therefore prefers
// unpaused over paused, fewer outstanding over more, and the lowest index on
// exact ties — precisely the linear gcAware scan's order. When every replica
// is paused the root's paused bit is set and the minimum degenerates to
// least-outstanding-among-all, which is exactly the linear policy's
// fallback. Least-outstanding uses the same tree with the paused bit never
// set. The linear policies live on in the tests (lb_test.go) as
// differential oracles; the property tests drive both through identical
// update streams and demand identical decisions.

const (
	lbIdxBits   = 31
	lbIdxMask   = 1<<lbIdxBits - 1
	lbCountMask = 1<<lbIdxBits - 1
	lbPausedBit = uint64(1) << (2 * lbIdxBits)
)

// lbKey packs one replica's balancer-visible state into a totally ordered
// key. Outstanding counts are bounded by requests-in-flight (well under
// 2^31); indices by the replica count.
func lbKey(paused bool, count int32, idx int32) uint64 {
	k := uint64(count&lbCountMask)<<lbIdxBits | uint64(idx)
	if paused {
		k |= lbPausedBit
	}
	return k
}

// minTree is the tournament tree: 1-indexed array layout, leaves for n
// replicas at [base, base+n), internal nodes the min of their children.
// Unused leaves hold MaxUint64 so they never win.
type minTree struct {
	base int
	key  []uint64
}

func newMinTree(n int) *minTree {
	base := 1
	for base < n {
		base <<= 1
	}
	t := &minTree{base: base, key: make([]uint64, 2*base)}
	for i := 0; i < n; i++ {
		t.key[base+i] = lbKey(false, 0, int32(i))
	}
	for i := n; i < base; i++ {
		t.key[base+i] = math.MaxUint64
	}
	for i := base - 1; i >= 1; i-- {
		t.key[i] = min(t.key[2*i], t.key[2*i+1])
	}
	return t
}

// set updates leaf i and recomputes the minima on its root path: O(log N).
func (t *minTree) set(i int, k uint64) {
	p := t.base + i
	t.key[p] = k
	for p >>= 1; p >= 1; p >>= 1 {
		m := min(t.key[2*p], t.key[2*p+1])
		if t.key[p] == m {
			break
		}
		t.key[p] = m
	}
}

// root returns the minimum key across all replicas.
func (t *minTree) root() uint64 { return t.key[1] }

// leastOutstandingIndex is the O(log N) least-connections policy: the tree
// orders by (outstanding, index) and pick reads the root.
type leastOutstandingIndex struct {
	tree   *minTree
	counts []int32
}

func newLeastOutstandingIndex(n int) *leastOutstandingIndex {
	return &leastOutstandingIndex{tree: newMinTree(n), counts: make([]int32, n)}
}

func (b *leastOutstandingIndex) pick(reps []backend) Decision {
	return Decision{Replica: int(b.tree.root() & lbIdxMask), Reason: ReasonLeastOutstanding}
}

func (b *leastOutstandingIndex) inject(i int) {
	b.counts[i]++
	b.tree.set(i, lbKey(false, b.counts[i], int32(i)))
}

func (b *leastOutstandingIndex) complete(i int) {
	b.counts[i]--
	b.tree.set(i, lbKey(false, b.counts[i], int32(i)))
}

// setPaused is a no-op: the load-only policy is pause-blind by design.
func (b *leastOutstandingIndex) setPaused(int, bool) {}

// gcAwareIndex is the O(log N) GC-aware policy: the paused bit dominates the
// key, so the root is the least-outstanding unpaused replica whenever one
// exists, and the least-outstanding replica overall (the linear policy's
// fallback) when the whole fleet is mid-pause.
type gcAwareIndex struct {
	tree    *minTree
	counts  []int32
	pausedN int // replicas currently mid-STW, the Decision.Avoided count
}

func newGCAwareIndex(n int) *gcAwareIndex {
	return &gcAwareIndex{tree: newMinTree(n), counts: make([]int32, n)}
}

func (b *gcAwareIndex) pick(reps []backend) Decision {
	k := b.tree.root()
	i := int(k & lbIdxMask)
	if k&lbPausedBit != 0 {
		// Whole fleet paused at once: no routing escape, fall back to load.
		return Decision{Replica: i, Reason: ReasonGCAwareFallback}
	}
	reason := ReasonGCAware
	if b.pausedN > 0 {
		reason = ReasonGCAwareAvoid
	}
	return Decision{Replica: i, Reason: reason, Avoided: b.pausedN}
}

func (b *gcAwareIndex) inject(i int) {
	b.counts[i]++
	b.tree.set(i, b.leafKey(i))
}

func (b *gcAwareIndex) complete(i int) {
	b.counts[i]--
	b.tree.set(i, b.leafKey(i))
}

func (b *gcAwareIndex) setPaused(i int, paused bool) {
	if paused {
		b.pausedN++
	} else {
		b.pausedN--
	}
	k := lbKey(paused, b.counts[i], int32(i))
	b.tree.set(i, k)
}

// leafKey rebuilds leaf i's key preserving its current paused bit.
func (b *gcAwareIndex) leafKey(i int) uint64 {
	return lbKey(b.tree.key[b.tree.base+i]&lbPausedBit != 0, b.counts[i], int32(i))
}
