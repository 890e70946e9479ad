package workload

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"chopin/internal/gc"
	"chopin/internal/trace"
)

// snapshot deep-copies a log without going through trace.Log.Clone, the
// copy under test.
func snapshot(l *trace.Log) *trace.Log {
	return &trace.Log{
		Events:  append([]trace.GCEvent{}, l.Events...),
		Pauses:  append([]trace.Pause{}, l.Pauses...),
		StallNS: l.StallNS,
	}
}

// checkExact fails unless the log's columns are non-nil and exactly their
// length: the Result holds a copy, not the pooled scratch it was built in.
func checkExact(t *testing.T, name string, l *trace.Log) {
	t.Helper()
	if l.Events == nil || l.Pauses == nil {
		t.Errorf("%s: nil log column (events nil=%v, pauses nil=%v), want non-nil",
			name, l.Events == nil, l.Pauses == nil)
	}
	if len(l.Events) != cap(l.Events) || len(l.Pauses) != cap(l.Pauses) {
		t.Errorf("%s: events len %d cap %d, pauses len %d cap %d: want len == cap",
			name, len(l.Events), cap(l.Events), len(l.Pauses), cap(l.Pauses))
	}
}

// TestRunLogOutlivesScratch: runs share pooled log scratch, so a Result's
// log must be a copy the next run cannot reach. Back-to-back runs (closed
// loop, open loop, an OOM in between, a GC-free run) each overwrite the
// scratch; the first run's log must still equal a snapshot taken when it
// returned, and every log must be exact-size.
func TestRunLogOutlivesScratch(t *testing.T) {
	closed := RunConfig{HeapMB: 1.5 * Fop.MinHeapMB, Collector: gc.G1, Iterations: 2, Events: 300, Seed: 42}
	first, err := Run(Fop, closed)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Log.Events) == 0 || len(first.Log.Pauses) == 0 {
		t.Fatalf("first run logged %d events, %d pauses: too small to test",
			len(first.Log.Events), len(first.Log.Pauses))
	}
	want := snapshot(first.Log)
	checkExact(t, "closed", first.Log)

	open, err := Run(Spring, RunConfig{
		HeapMB: 2 * Spring.MinHeapMB, Collector: gc.Shenandoah, Iterations: 2, Events: 300, Seed: 7,
		OpenLoop: true, OpenLoopHeadroom: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "open", open.Log)

	_, err = Run(Lusearch, RunConfig{HeapMB: 2, Collector: gc.Serial, Iterations: 1, Events: 300, Seed: 1})
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}

	idle, err := Run(Avrora, RunConfig{HeapMB: 1 << 20, Collector: gc.Serial, Iterations: 1, Events: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(idle.Log.Events) != 0 || len(idle.Log.Pauses) != 0 {
		t.Fatalf("a 1 TB heap logged %d events, %d pauses: want a GC-free run",
			len(idle.Log.Events), len(idle.Log.Pauses))
	}
	checkExact(t, "GC-free", idle.Log)

	closed.Seed = 43
	if _, err := Run(Fop, closed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Log, want) {
		t.Fatal("a later run changed the first run's Result.Log")
	}
}

// TestRunAllocatesLogOnce bounds the bytes one Run allocates: the exact
// copy of its GC log plus at most as much again, and a fixed setup term
// (engine, heap, threads, result; ~20 KB measured). Appending a run's log
// into a fresh slice regrows it to about four times its final size, which
// this budget refuses. A pool may drop the warm scratch (a collection
// empties it, and the race detector discards a quarter of all Puts), so
// the budget must hold on one of ten attempts.
func TestRunAllocatesLogOnce(t *testing.T) {
	const setupBytes = 64 << 10
	for _, kind := range []gc.Kind{gc.Serial, gc.G1, gc.GenZGC} {
		cfg := RunConfig{HeapMB: 1.5 * Fop.MinHeapMB, Collector: kind, Iterations: 2, Events: 1000, Seed: 42}
		if _, err := Run(Fop, cfg); err != nil { // sizes the pooled scratch
			t.Fatal(err)
		}
		var allocated, budget uint64
		for attempt := 0; attempt < 10; attempt++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(Fop, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			logBytes := uint64(len(res.Log.Events))*uint64(unsafe.Sizeof(trace.GCEvent{})) +
				uint64(len(res.Log.Pauses))*uint64(unsafe.Sizeof(trace.Pause{}))
			allocated, budget = after.TotalAlloc-before.TotalAlloc, 2*logBytes+setupBytes
			if allocated <= budget {
				break
			}
		}
		if allocated > budget {
			t.Errorf("%v: a run allocated %d B, budget %d B (2x its log plus %d B setup): "+
				"the GC log is regrowing instead of filling pooled scratch", kind, allocated, budget, setupBytes)
		}
	}
}

// TestReplicaRelease: once released, a replica no longer reaches the
// scratch it was built on, and the next replica built on that scratch
// starts from an empty log and queue.
func TestReplicaRelease(t *testing.T) {
	var s Scratch
	cfg := RunConfig{HeapMB: 2 * MicroPauseProbe.MinHeapMB, Collector: gc.G1, Iterations: 1, Events: 60, Seed: 42}
	rp, err := NewReplica(MicroPauseProbe, cfg, 0, &s)
	if err != nil {
		t.Fatal(err)
	}
	ival, err := rp.Interval()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rp.InjectAt(float64(i)*ival, int32(i))
	}
	for rp.Engine().Step() {
	}
	if rp.Served() != 40 || len(rp.Log().Events) == 0 {
		t.Fatalf("replica served %d requests and logged %d GC events: too small to test",
			rp.Served(), len(rp.Log().Events))
	}
	rp.Release()
	rp.Release()
	if rp.Log() != nil || rp.Latencies() != nil {
		t.Fatal("a released replica still reaches its scratch")
	}
	if len(s.log.Events) == 0 || cap(s.lat) < 40 {
		t.Fatalf("release dropped the grown storage: %d events, latency capacity %d",
			len(s.log.Events), cap(s.lat))
	}
	next, err := NewReplica(MicroPauseProbe, cfg, 1, &s)
	if err != nil {
		t.Fatal(err)
	}
	if l := next.Log(); len(l.Events) != 0 || len(l.Pauses) != 0 || l.StallNS != 0 ||
		len(next.Latencies()) != 0 || len(next.r.ol.queue) != 0 {
		t.Fatal("a replica built on released scratch inherited its contents")
	}
}
