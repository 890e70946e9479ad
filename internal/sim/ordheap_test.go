package sim

import (
	"sort"
	"testing"
)

// testEntry exercises ordHeap with the same (primary, seq) shape both real
// entry types use.
type testEntry struct {
	key float64
	seq int64
}

func (a testEntry) lessThan(b testEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func TestOrdHeapPopsInOrder(t *testing.T) {
	var h ordHeap[testEntry]
	rng := NewRNG(21)
	var want []testEntry
	for i := 0; i < 500; i++ {
		e := testEntry{key: float64(rng.Uint64() % 64), seq: int64(i)}
		h.push(e)
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].lessThan(want[j]) })
	for i, w := range want {
		if h.len() != len(want)-i {
			t.Fatalf("len = %d at pop %d", h.len(), i)
		}
		if got := h.peek(); got != w {
			t.Fatalf("peek %d = %+v, want %+v", i, got, w)
		}
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}

func TestOrdHeapInterleavedPushPop(t *testing.T) {
	var h ordHeap[testEntry]
	rng := NewRNG(9)
	seq := int64(0)
	lastKey := -1.0
	for round := 0; round < 200; round++ {
		for i := 0; i < int(rng.Uint64()%8); i++ {
			seq++
			h.push(testEntry{key: lastKey + float64(rng.Uint64()%100), seq: seq})
		}
		for i := 0; i < int(rng.Uint64()%8) && h.len() > 0; i++ {
			e := h.pop()
			if e.key < lastKey {
				t.Fatalf("pop went backwards: %v after %v", e.key, lastKey)
			}
			lastKey = e.key
		}
	}
}
