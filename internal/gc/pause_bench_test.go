package gc

import (
	"fmt"
	"testing"

	"chopin/internal/heap"
	"chopin/internal/sim"
	"chopin/internal/trace"
)

// benchMutator is one synthetic mutator of BenchmarkCollectorPause: a chain
// of allocate-then-compute quanta whose callbacks are bound once, so the
// loop allocates nothing per quantum.
type benchMutator struct {
	col     *Collector
	t       *sim.Thread
	left    int
	oom     bool
	step    func()
	onAlloc func(bool)
}

func (m *benchMutator) next() {
	if m.left == 0 {
		return
	}
	m.left--
	m.col.Alloc(256*1024, m.onAlloc)
}

func (m *benchMutator) allocated(ok bool) {
	if !ok {
		m.oom = true
		return
	}
	m.t.Exec(10*sim.Microsecond*m.col.MutatorFactor(), m.step)
}

// runPauseBench runs 12 mutators of 500 quanta each (256 KB allocated and
// 10µs computed per quantum, 1.5 GB in all) through a 64 MB heap holding
// 16 MB live on a 16-core, 32-thread machine, and returns the number of
// stop-the-world pauses taken.
func runPauseBench(b *testing.B, kind Kind) int {
	p := kind.Params(16)
	eng := sim.NewEngine(32, nil)
	h := heap.New(heap.Config{SizeBytes: 64 * mb, Expansion: p.Expansion}, testDemo())
	h.SetTargetLive(16 * mb)
	log := &trace.Log{}
	col := New(p, eng, h, log)
	ms := make([]benchMutator, 12)
	for i := range ms {
		m := &ms[i]
		m.col, m.t, m.left = col, eng.NewThread(fmt.Sprintf("mutator-%d", i)), 500
		m.step, m.onAlloc = m.next, m.allocated
		col.RegisterMutator(m.t)
	}
	for i := range ms {
		ms[i].next()
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	for i := range ms {
		if ms[i].oom || ms[i].left != 0 {
			b.Fatalf("%v: mutator %d stopped with %d quanta left (oom %v)", kind, i, ms[i].left, ms[i].oom)
		}
	}
	return len(log.Pauses)
}

// BenchmarkCollectorPause prices the collector layer without a workload:
// Collector.Alloc's fast and slow paths, and every stop-the-world pause's
// freeze of the mutators, STW gang quantum and thaw, on the engine steps
// between them. Beside BenchmarkRunInvocation it separates gc and sim cost
// from the workload runner's; it uses only long-standing collector API, so
// one source benchmarks any revision.
func BenchmarkCollectorPause(b *testing.B) {
	for _, kind := range AllKinds {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			pauses := 0
			for i := 0; i < b.N; i++ {
				pauses += runPauseBench(b, kind)
			}
			b.ReportMetric(float64(pauses)/float64(b.N), "pauses/op")
		})
	}
}
