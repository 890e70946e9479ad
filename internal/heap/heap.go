// Package heap models the managed heap: spaces, occupancy, object
// demographics and the reclamation arithmetic shared by all collectors.
//
// The model is deliberately aggregate rather than object-by-object: the
// methodologies under study (LBO, the time-space tradeoff, latency) consume
// bytes, occupancies and survival fractions, not object graphs. A workload
// declares a target live set (which its phase script moves over time) and a
// demographic profile (survival behaviour and object-size distribution); the
// heap tracks how allocation, promotion, death and collection move bytes
// between the young space, old live data and old garbage.
//
// The accounting obeys the generational hypothesis: the fraction of young
// bytes that survive a collection falls as the nursery grows, because objects
// get more time to die. That single mechanism is what gives generational
// collectors their advantage in the simulated time-space tradeoff, exactly as
// it does in real systems.
package heap

import (
	"fmt"
	"math"
)

// Config sizes a heap.
type Config struct {
	// SizeBytes is the -Xmx limit.
	SizeBytes float64
	// Expansion is the footprint multiplier relative to the reference
	// configuration (compressed 32-bit object pointers). Running without
	// compressed oops — which ZGC always does — inflates every object, so
	// the same logical data needs Expansion x the space. Must be >= 1.
	Expansion float64
}

// Demographics is a workload's intrinsic object-population behaviour.
type Demographics struct {
	// YoungSurvival is the fraction of young bytes that survive a young
	// collection when the nursery has RefNursery bytes.
	YoungSurvival float64
	// RefNursery is the nursery size at which YoungSurvival was calibrated.
	RefNursery float64
	// SurvivalDecay is the exponent theta in
	// survival(n) = YoungSurvival * (RefNursery/n)^theta: larger nurseries
	// give objects more time to die.
	SurvivalDecay float64
	// CompactFraction is the fraction of old live bytes a compacting full
	// collection must move.
	CompactFraction float64
	// Object size distribution quantiles, in bytes (nominal stats AOS, AOM,
	// AOL and the average AOA).
	AvgObjectBytes    float64
	ObjectBytesP10    float64
	ObjectBytesMedian float64
	ObjectBytesP90    float64
}

// SurvivalAt returns the expected young survival fraction for a nursery of n
// bytes, clamped to [0.005, 0.95].
func (d Demographics) SurvivalAt(n float64) float64 {
	s := d.YoungSurvival
	if n > 0 && d.RefNursery > 0 && d.SurvivalDecay > 0 {
		s *= math.Pow(d.RefNursery/n, d.SurvivalDecay)
	}
	return math.Min(0.95, math.Max(0.005, s))
}

// Heap is the managed heap state for one simulated JVM.
type Heap struct {
	cfg        Config
	demo       Demographics
	targetLive float64 // workload-declared live set
	oldLive    float64 // live bytes in the old space
	oldDead    float64 // dead bytes in the old space awaiting collection
	young      float64 // bytes allocated since the last young collection
	totalAlloc float64
	peakUsed   float64
}

// New returns a heap with the given configuration and demographics.
func New(cfg Config, demo Demographics) *Heap {
	if cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("heap: non-positive size %v", cfg.SizeBytes))
	}
	if cfg.Expansion < 1 {
		cfg.Expansion = 1
	}
	return &Heap{cfg: cfg, demo: demo}
}

// Capacity returns the logical byte capacity: the configured size deflated by
// the footprint expansion.
func (h *Heap) Capacity() float64 { return h.cfg.SizeBytes / h.cfg.Expansion }

// Used returns the occupied logical bytes (live + dead + young).
func (h *Heap) Used() float64 { return h.oldLive + h.oldDead + h.young }

// Free returns the unoccupied logical bytes.
func (h *Heap) Free() float64 { return h.Capacity() - h.Used() }

// Young returns the bytes allocated since the last young collection.
func (h *Heap) Young() float64 { return h.young }

// OldLive returns the live bytes resident in the old space.
func (h *Heap) OldLive() float64 { return h.oldLive }

// OldDead returns the garbage bytes awaiting an old collection.
func (h *Heap) OldDead() float64 { return h.oldDead }

// TargetLive returns the workload-declared live set.
func (h *Heap) TargetLive() float64 { return h.targetLive }

// TotalAllocated returns cumulative bytes allocated over the heap's life.
func (h *Heap) TotalAllocated() float64 { return h.totalAlloc }

// PeakUsed returns the high-water mark of Used.
func (h *Heap) PeakUsed() float64 { return h.peakUsed }

// Demographics returns the demographic profile the heap was built with.
func (h *Heap) Demographics() Demographics { return h.demo }

// SetTargetLive declares the workload's current live set. Growth is realised
// by retaining future allocations; shrinkage is discovered by the next
// collection (dead objects are invisible until traced).
func (h *Heap) SetTargetLive(b float64) {
	if b < 0 {
		b = 0
	}
	h.targetLive = b
}

// TryAlloc allocates b bytes into the young space if they fit, reporting
// whether the allocation succeeded. On failure the collector must reclaim
// space (or declare OOM).
func (h *Heap) TryAlloc(b float64) bool {
	if b < 0 {
		panic(fmt.Sprintf("heap: negative allocation %v", b))
	}
	if h.Used()+b > h.Capacity() {
		return false
	}
	h.young += b
	h.totalAlloc += b
	if u := h.Used(); u > h.peakUsed {
		h.peakUsed = u
	}
	return true
}

// AllocFast allocates b bytes into the young space without a capacity check.
// It is the collector's bump-allocation fast path: the caller has already
// proved (via its precomputed budget) that the bytes fit, so this is exactly
// TryAlloc's success path.
func (h *Heap) AllocFast(b float64) {
	if b < 0 {
		panic(fmt.Sprintf("heap: negative allocation %v", b))
	}
	h.young += b
	h.totalAlloc += b
	if u := h.Used(); u > h.peakUsed {
		h.peakUsed = u
	}
}

// CollectStats reports the byte flows of one collection, from which a
// collector computes its CPU cost.
type CollectStats struct {
	// ScannedBytes is the live data the collector had to trace.
	ScannedBytes float64
	// CopiedBytes is the data the collector had to move (evacuation,
	// promotion, compaction).
	CopiedBytes float64
	// ReclaimedBytes is the garbage returned to the free space.
	ReclaimedBytes float64
	// PromotedBytes is the young data moved into the old space.
	PromotedBytes float64
	// UsedAfter is the heap occupancy after the collection.
	UsedAfter float64
}

// discoverOldDeath moves any excess of old live data over the declared live
// set into the dead pool; collections discover deaths, they do not cause
// them.
func (h *Heap) discoverOldDeath() {
	if h.oldLive > h.targetLive {
		h.oldDead += h.oldLive - h.targetLive
		h.oldLive = h.targetLive
	}
}

// collectYoungSlice processes the first slice bytes of the young space as a
// young collection: survivors (per the demographic survival curve, or more if
// the workload's live set must grow) are promoted; the rest is reclaimed.
func (h *Heap) collectYoungSlice(slice float64) CollectStats {
	h.discoverOldDeath()
	if slice > h.young {
		slice = h.young
	}
	if slice <= 0 {
		return CollectStats{UsedAfter: h.Used()}
	}
	natural := slice * h.demo.SurvivalAt(slice)
	deficit := math.Max(0, h.targetLive-h.oldLive)
	survivors := math.Max(natural, math.Min(slice, deficit))
	growth := math.Min(survivors, deficit)
	h.oldLive += growth
	h.oldDead += survivors - growth // medium-lived data: promoted, will die old
	reclaimed := slice - survivors
	h.young -= slice
	return CollectStats{
		ScannedBytes:   survivors,
		CopiedBytes:    survivors,
		ReclaimedBytes: reclaimed,
		PromotedBytes:  survivors,
		UsedAfter:      h.Used(),
	}
}

// CollectYoung performs a young (nursery) collection over the whole young
// space.
func (h *Heap) CollectYoung() CollectStats {
	return h.collectYoungSlice(h.young)
}

// CollectFull performs a full collection: the young space is collected, old
// garbage is reclaimed, and the old space is compacted.
func (h *Heap) CollectFull() CollectStats {
	ys := h.collectYoungSlice(h.young)
	h.discoverOldDeath()
	reclaimedOld := h.oldDead
	h.oldDead = 0
	compact := h.oldLive * h.demo.CompactFraction
	return CollectStats{
		ScannedBytes:   h.oldLive + ys.ScannedBytes,
		CopiedBytes:    ys.CopiedBytes + compact,
		ReclaimedBytes: ys.ReclaimedBytes + reclaimedOld,
		PromotedBytes:  ys.PromotedBytes,
		UsedAfter:      h.Used(),
	}
}

// Snapshot marks the start of a concurrent cycle: only garbage existing now
// is reclaimable when the cycle finishes; allocation after the snapshot
// floats to the next cycle ("allocated black").
type Snapshot struct {
	youngAtSnap float64
	oldLive     float64
}

// SnapshotForConcurrent starts a concurrent cycle, returning the snapshot and
// the live bytes the cycle must trace.
func (h *Heap) SnapshotForConcurrent() (Snapshot, float64) {
	h.discoverOldDeath()
	s := Snapshot{youngAtSnap: h.young, oldLive: h.oldLive}
	return s, h.oldLive + h.young*0.5 // young is partly live while in flight
}

// FinishConcurrent completes a concurrent cycle: the snapshotted young slice
// is processed and snapshot-era old garbage reclaimed. Post-snapshot
// allocation survives as floating garbage.
func (h *Heap) FinishConcurrent(s Snapshot) CollectStats {
	slice := math.Min(s.youngAtSnap, h.young)
	ys := h.collectYoungSlice(slice)
	h.discoverOldDeath()
	reclaimedOld := h.oldDead
	h.oldDead = 0
	return CollectStats{
		ScannedBytes:   s.oldLive + ys.ScannedBytes,
		CopiedBytes:    ys.CopiedBytes + h.oldLive*h.demo.CompactFraction*0.5,
		ReclaimedBytes: ys.ReclaimedBytes + reclaimedOld,
		PromotedBytes:  ys.PromotedBytes,
		UsedAfter:      h.Used(),
	}
}
