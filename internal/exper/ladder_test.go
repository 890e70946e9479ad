package exper

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"chopin/internal/nominal"
	"chopin/internal/workload"
)

// referenceMinHeapMB is the differential oracle for the engine's min-heap
// measurement: the same exponential-then-bisection search and serial
// 3%-growth seed validation, run straight on workload.Run — no engine, no
// pool, no single-flight, no memo, no cache.
func referenceMinHeapMB(d *workload.Descriptor, p MinHeapParams) (float64, error) {
	if p.Invocations < 1 {
		p.Invocations = 1
	}
	if p.Iterations < 1 {
		p.Iterations = 1
	}
	base := minHeapBase(p)
	bound, err := nominal.MinHeapWith(workload.Run, d, base, 1)
	if err != nil {
		return 0, fmt.Errorf("measuring min heap for %s: %w", d.Name, err)
	}
	return validateMinHeap(workload.Run, d, base, bound, p)
}

// minHeapTuple is one seeded (workload, params) point in the differential
// property test's space. The search base is always G1 (the paper's GMD
// definition), so the collector axis is exercised through the probe
// configuration the params induce rather than a collector field.
type minHeapTuple struct {
	bench string
	p     MinHeapParams
}

// minHeapTuples enumerates 220 seeded tuples: every registered workload
// crossed with ten parameter variations — seeds, event counts, invocation
// counts and iteration counts all vary, so the tuples cover short and long
// probe chains, single- and multi-seed validation, and every descriptor's
// live-set scale.
func minHeapTuples() []minHeapTuple {
	var tuples []minHeapTuple
	for wi, name := range workload.Names() {
		for i := 0; i < 10; i++ {
			tuples = append(tuples, minHeapTuple{
				bench: name,
				p: MinHeapParams{
					Events:      20 + 10*(i%2),
					Iterations:  1,
					Invocations: 1 + i%2,
					Seed:        uint64(1_000*wi + 37*i + 1),
				},
			})
		}
	}
	return tuples
}

// TestMinHeapMatchesReference is the differential property test for the
// engine's min-heap measurement: for 220 seeded (workload, params) tuples,
// MinHeapMB — every probe a deduplicated, cancellable pool job — must equal
// referenceMinHeapMB bit for bit, including error outcomes.
func TestMinHeapMatchesReference(t *testing.T) {
	tuples := minHeapTuples()
	if testing.Short() {
		tuples = tuples[:len(tuples)/8]
	}
	e := New(Options{Workers: 4, Memoize: true})
	defer e.Close()
	for _, tc := range tuples {
		d, err := workload.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := e.MinHeapMB(d, tc.p)
		want, wantErr := referenceMinHeapMB(d, tc.p)
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s %+v: engine err %v, reference err %v", tc.bench, tc.p, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%s %+v: engine %vMB, reference %vMB", tc.bench, tc.p, got, want)
		}
	}
}

// TestCloseDuringMinHeapCancelsCleanly is the shutdown stress test: Close
// racing an in-flight min-heap search must cancel its outstanding probes
// cleanly — the ticket resolves with ErrEngineClosed in its chain (never
// hangs), no partial search is written to the persistent cache, and no
// orchestration or probe goroutine leaks. The sleep schedule sweeps the
// close point across the search's phases so some iterations interrupt the
// exponential search, some the bisection, some the validation rounds, and
// some lose the race entirely (which must then have cached a complete,
// correct record).
func TestCloseDuringMinHeapCancelsCleanly(t *testing.T) {
	d, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		cache, err := OpenCache(dir, ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 2, Cache: cache})
		p := MinHeapParams{Events: 120, Iterations: 1, Invocations: 2, Seed: uint64(i + 1)}
		tk, err := e.SubmitMinHeap(d, p)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i) * 2 * time.Millisecond)
		if err := e.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", i, err)
		}

		select {
		case <-tk.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("iter %d: ticket never resolved after Close", i)
		}
		mb, waitErr := tk.Wait()
		if err := cache.Close(); err != nil {
			t.Fatalf("iter %d: cache close: %v", i, err)
		}

		// Reopen the cache: a cancelled search must have written nothing; a
		// search that beat the close must have written the full record.
		reopened, err := OpenCache(dir, ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		k, err := minHeapKey(d, p)
		if err != nil {
			t.Fatal(err)
		}
		rec, cached := reopened.getMinHeap(k)
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		if waitErr != nil {
			if !errors.Is(waitErr, ErrEngineClosed) {
				t.Fatalf("iter %d: ticket error %v, want ErrEngineClosed in chain", i, waitErr)
			}
			if cached {
				t.Fatalf("iter %d: cancelled search persisted a partial record: %+v", i, rec)
			}
		} else if cached && rec.MinHeapMB != mb {
			t.Fatalf("iter %d: cached %vMB, ticket resolved %vMB", i, rec.MinHeapMB, mb)
		}
	}

	// Goroutine-leak check: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines leaked across shutdowns: %d now vs %d at start", n, baseline)
	}
}
