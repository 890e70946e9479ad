package fleet

import "chopin/internal/sim"

// Indexed balancers: O(log N) picks for 1024-replica fleets.
//
// A linear policy rescans every replica per arrival — O(N) per pick, the
// fleet-level twin of the O(T) scheduler the engine's heap replaced. At 1024
// replicas that scan dominates the driver loop, so the production policies
// keep a sim.MinIndex (a tournament tree) over per-replica keys instead: each
// slot holds one replica's (paused, outstanding) packed into a single
// uint64, and the tree names the replica with the smallest key, the lowest
// index on equal keys. The driver mirrors state changes into the tree —
// outstanding counts on inject/complete, pause bits from the collector's
// pause-transition hook — at O(log N) per update, and pick reads the
// minimum in O(1).
//
// Key packing is what makes one integer compare implement the policy order:
// the paused bit sits above every outstanding count. Minimizing the key
// therefore prefers unpaused over paused and fewer outstanding over more,
// and the tree's tie rule takes the lowest index on exact ties — precisely
// the linear gcAware scan's order. When every replica is paused the
// minimum's paused bit is set and the choice degenerates to
// least-outstanding-among-all, which is exactly the linear policy's
// fallback. Least-outstanding uses the same tree with the paused bit never
// set. The linear policies live on in the tests (lb_test.go) as
// differential oracles; the property tests drive both through identical
// update streams and demand identical decisions.

// lbPausedBit sits above every outstanding count a key can hold.
const lbPausedBit = uint64(1) << 32

// lbKey packs one replica's balancer-visible state into a totally ordered
// key. Outstanding counts are never negative.
func lbKey(paused bool, count int32) uint64 {
	k := uint64(uint32(count))
	if paused {
		k |= lbPausedBit
	}
	return k
}

// leastOutstandingIndex is the O(log N) least-connections policy: the tree
// orders by (outstanding, index) and pick reads the root.
type leastOutstandingIndex struct {
	tree   *sim.MinIndex[uint64]
	counts []int32
}

func newLeastOutstandingIndex(n int) *leastOutstandingIndex {
	return &leastOutstandingIndex{tree: sim.NewMinIndex(n, lbKey(false, 0)), counts: make([]int32, n)}
}

func (b *leastOutstandingIndex) pick(reps []backend) Decision {
	return Decision{Replica: b.tree.Min(), Reason: ReasonLeastOutstanding}
}

func (b *leastOutstandingIndex) inject(i int) {
	b.counts[i]++
	b.tree.Set(i, lbKey(false, b.counts[i]))
}

func (b *leastOutstandingIndex) complete(i int) {
	b.counts[i]--
	b.tree.Set(i, lbKey(false, b.counts[i]))
}

// setPaused is a no-op: the load-only policy is pause-blind by design.
func (b *leastOutstandingIndex) setPaused(int, bool) {}

// gcAwareIndex is the O(log N) GC-aware policy: the paused bit dominates the
// key, so the root is the least-outstanding unpaused replica whenever one
// exists, and the least-outstanding replica overall (the linear policy's
// fallback) when the whole fleet is mid-pause.
type gcAwareIndex struct {
	tree    *sim.MinIndex[uint64]
	counts  []int32
	pausedN int // replicas currently mid-STW, the Decision.Avoided count
}

func newGCAwareIndex(n int) *gcAwareIndex {
	return &gcAwareIndex{tree: sim.NewMinIndex(n, lbKey(false, 0)), counts: make([]int32, n)}
}

func (b *gcAwareIndex) pick(reps []backend) Decision {
	i := b.tree.Min()
	if b.tree.Key(i)&lbPausedBit != 0 {
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
	b.tree.Set(i, b.leafKey(i))
}

func (b *gcAwareIndex) complete(i int) {
	b.counts[i]--
	b.tree.Set(i, b.leafKey(i))
}

func (b *gcAwareIndex) setPaused(i int, paused bool) {
	if paused {
		b.pausedN++
	} else {
		b.pausedN--
	}
	b.tree.Set(i, lbKey(paused, b.counts[i]))
}

// leafKey rebuilds slot i's key preserving its current paused bit.
func (b *gcAwareIndex) leafKey(i int) uint64 {
	return lbKey(b.tree.Key(i)&lbPausedBit != 0, b.counts[i])
}
