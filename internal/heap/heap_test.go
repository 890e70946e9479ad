package heap

import (
	"math"
	"testing"
	"testing/quick"
)

const mb = 1 << 20

func testDemo() Demographics {
	return Demographics{
		YoungSurvival:   0.10,
		RefNursery:      16 * mb,
		SurvivalDecay:   0.4,
		CompactFraction: 0.5,
		AvgObjectBytes:  64, ObjectBytesP10: 24, ObjectBytesMedian: 32, ObjectBytesP90: 88,
	}
}

func newTestHeap(sizeMB float64) *Heap {
	return New(Config{SizeBytes: sizeMB * mb, Expansion: 1}, testDemo())
}

func TestAllocWithinCapacity(t *testing.T) {
	h := newTestHeap(100)
	if !h.TryAlloc(50 * mb) {
		t.Fatal("allocation within capacity failed")
	}
	if got := h.Used(); got != 50*mb {
		t.Fatalf("used = %v, want 50MB", got)
	}
	if got := h.Free(); got != 50*mb {
		t.Fatalf("free = %v, want 50MB", got)
	}
}

func TestAllocBeyondCapacityFails(t *testing.T) {
	h := newTestHeap(100)
	if h.TryAlloc(101 * mb) {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if h.Used() != 0 {
		t.Fatal("failed allocation changed occupancy")
	}
	if !h.TryAlloc(100 * mb) {
		t.Fatal("exact-fit allocation failed")
	}
	if h.TryAlloc(1) {
		t.Fatal("allocation into a full heap succeeded")
	}
}

func TestExpansionShrinksLogicalCapacity(t *testing.T) {
	h := New(Config{SizeBytes: 100 * mb, Expansion: 1.45}, testDemo())
	want := 100 * mb / 1.45
	if got := h.Capacity(); math.Abs(got-want) > 1 {
		t.Fatalf("capacity = %v, want %v", got, want)
	}
}

func TestYoungCollectionReclaimsGarbage(t *testing.T) {
	h := newTestHeap(100)
	h.SetTargetLive(0)
	h.TryAlloc(16 * mb) // exactly the reference nursery: survival = 0.10
	st := h.CollectYoung()
	if math.Abs(st.ReclaimedBytes-0.9*16*mb) > 1 {
		t.Fatalf("reclaimed = %v, want %v", st.ReclaimedBytes, 0.9*16*mb)
	}
	if h.Young() != 0 {
		t.Fatalf("young space not emptied: %v", h.Young())
	}
	// Survivors with no live-set deficit become old garbage (turnover).
	if math.Abs(h.OldDead()-0.1*16*mb) > 1 {
		t.Fatalf("old dead = %v, want %v", h.OldDead(), 0.1*16*mb)
	}
}

func TestLiveSetGrowthRetainsAllocations(t *testing.T) {
	h := newTestHeap(200)
	h.SetTargetLive(40 * mb) // workload builds a 40MB structure
	h.TryAlloc(30 * mb)
	st := h.CollectYoung()
	// Everything must survive: live deficit exceeds the young space.
	if st.ReclaimedBytes != 0 {
		t.Fatalf("reclaimed %v while building live set", st.ReclaimedBytes)
	}
	if got := h.OldLive(); got != 30*mb {
		t.Fatalf("old live = %v, want 30MB", got)
	}
	h.TryAlloc(30 * mb)
	h.CollectYoung()
	// Only 10MB more was needed; the rest follows the survival curve.
	if got := h.OldLive(); math.Abs(got-40*mb) > 1 {
		t.Fatalf("old live = %v, want 40MB", got)
	}
}

func TestLiveSetShrinkDiscoveredByCollection(t *testing.T) {
	h := newTestHeap(200)
	h.SetTargetLive(40 * mb)
	h.TryAlloc(40 * mb)
	h.CollectYoung()
	h.SetTargetLive(10 * mb) // phase ends; 30MB dies
	st := h.CollectFull()
	if got := h.OldLive(); math.Abs(got-10*mb) > 1 {
		t.Fatalf("old live = %v, want 10MB", got)
	}
	if h.OldDead() != 0 {
		t.Fatalf("old dead not reclaimed: %v", h.OldDead())
	}
	if st.ReclaimedBytes < 30*mb-1 {
		t.Fatalf("full collection reclaimed %v, want >= 30MB", st.ReclaimedBytes)
	}
}

func TestGenerationalHypothesisLargerNurserySurvivesLess(t *testing.T) {
	d := testDemo()
	small := d.SurvivalAt(4 * mb)
	ref := d.SurvivalAt(16 * mb)
	large := d.SurvivalAt(64 * mb)
	if !(small > ref && ref > large) {
		t.Fatalf("survival should fall with nursery size: %v, %v, %v", small, ref, large)
	}
	if math.Abs(ref-0.10) > 1e-9 {
		t.Fatalf("reference survival = %v, want 0.10", ref)
	}
}

func TestSurvivalClamped(t *testing.T) {
	d := testDemo()
	if got := d.SurvivalAt(1); got > 0.95 {
		t.Fatalf("survival %v exceeds clamp", got)
	}
	if got := d.SurvivalAt(1e18); got < 0.005 {
		t.Fatalf("survival %v below clamp", got)
	}
}

func TestFullCollectionCostsIncludeCompaction(t *testing.T) {
	h := newTestHeap(200)
	h.SetTargetLive(40 * mb)
	h.TryAlloc(40 * mb)
	h.CollectYoung()
	h.TryAlloc(10 * mb)
	st := h.CollectFull()
	// Compaction moves CompactFraction of old live data.
	wantCompact := 40 * mb * 0.5
	if st.CopiedBytes < wantCompact {
		t.Fatalf("copied = %v, want >= %v from compaction", st.CopiedBytes, wantCompact)
	}
	if st.ScannedBytes < 40*mb {
		t.Fatalf("scanned = %v, want >= old live", st.ScannedBytes)
	}
}

func TestConcurrentCycleFloatingGarbage(t *testing.T) {
	h := newTestHeap(200)
	h.SetTargetLive(0)
	h.TryAlloc(20 * mb)
	snap, traced := h.SnapshotForConcurrent()
	if traced <= 0 {
		t.Fatalf("traced = %v, want > 0", traced)
	}
	// Allocation during the cycle...
	h.TryAlloc(30 * mb)
	st := h.FinishConcurrent(snap)
	// ...must float: only the snapshotted 20MB was collectable.
	if h.Young() != 30*mb {
		t.Fatalf("floating young = %v, want 30MB", h.Young())
	}
	if st.ReclaimedBytes > 20*mb {
		t.Fatalf("reclaimed %v, cannot exceed snapshot young", st.ReclaimedBytes)
	}
}

func TestPeakTracking(t *testing.T) {
	h := newTestHeap(100)
	h.SetTargetLive(30 * mb)
	h.TryAlloc(60 * mb)
	h.CollectFull()
	h.TryAlloc(10 * mb)
	if got := h.PeakUsed(); got != 60*mb {
		t.Fatalf("peak used = %v, want 60MB", got)
	}
}

func TestTotalAllocatedAccumulates(t *testing.T) {
	h := newTestHeap(100)
	for i := 0; i < 10; i++ {
		h.TryAlloc(5 * mb)
		h.CollectYoung()
	}
	if got := h.TotalAllocated(); got != 50*mb {
		t.Fatalf("total allocated = %v, want 50MB", got)
	}
}

func TestCollectEmptyHeapIsNoOp(t *testing.T) {
	h := newTestHeap(100)
	st := h.CollectYoung()
	if st.ReclaimedBytes != 0 || st.CopiedBytes != 0 {
		t.Fatalf("empty collection did work: %+v", st)
	}
	st = h.CollectFull()
	if st.ReclaimedBytes != 0 {
		t.Fatalf("empty full collection reclaimed %v", st.ReclaimedBytes)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestHeap(100).TryAlloc(-1)
}

func TestNonPositiveSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{SizeBytes: 0}, testDemo())
}

// Property: occupancy never exceeds capacity and never goes negative under
// any interleaving of allocations and collections.
func TestQuickOccupancyInvariant(t *testing.T) {
	f := func(ops []uint16, liveRaw uint16) bool {
		h := newTestHeap(64)
		h.SetTargetLive(float64(liveRaw%32) * mb)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				h.TryAlloc(float64(op%2000) * 1024)
			case 2:
				h.CollectYoung()
			case 3:
				h.CollectFull()
			}
			if h.Used() > h.Capacity()+1e-6 || h.Used() < -1e-6 {
				return false
			}
			if h.Young() < -1e-6 || h.OldLive() < -1e-6 || h.OldDead() < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a full collection leaves used == old live <= max(target, 0) +
// anything young that survived, and old live never exceeds peak target.
func TestQuickFullCollectionConverges(t *testing.T) {
	f := func(allocs []uint16, liveRaw uint16) bool {
		h := newTestHeap(64)
		target := float64(liveRaw%40) * mb
		h.SetTargetLive(target)
		for _, a := range allocs {
			if !h.TryAlloc(float64(a % 50000)) {
				h.CollectFull()
			}
		}
		h.CollectFull()
		h.CollectFull() // second full GC: all discovered death reclaimed
		return h.OldDead() == 0 && h.OldLive() <= target+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reclaimed + surviving bytes always equal the bytes collected.
func TestQuickCollectionConservation(t *testing.T) {
	f := func(allocRaw, liveRaw uint16) bool {
		h := newTestHeap(256)
		h.SetTargetLive(float64(liveRaw%64) * mb)
		alloc := float64(allocRaw%128) * mb / 2
		if !h.TryAlloc(alloc) {
			return true
		}
		before := h.Used()
		st := h.CollectYoung()
		return math.Abs((before-st.ReclaimedBytes)-h.Used()) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	h := newTestHeap(100)
	h.SetTargetLive(10 * mb)
	if h.TargetLive() != 10*mb {
		t.Fatalf("TargetLive = %v", h.TargetLive())
	}
	if h.Demographics().AvgObjectBytes != 64 {
		t.Fatalf("Demographics = %+v", h.Demographics())
	}
	h.SetTargetLive(-5)
	if h.TargetLive() != 0 {
		t.Fatal("negative live should clamp to zero")
	}
}
