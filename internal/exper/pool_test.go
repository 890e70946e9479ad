package exper

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chopin/internal/workload"
)

// TestSubmitCloseRaceNeverPanicsOrDrops stresses the shutdown race: with
// submitters racing close(), the pool must refuse a late task (submit
// returns false) so the caller runs it inline — every task runs exactly
// once, none panic, none vanish. Run under -race in tier 1.
func TestSubmitCloseRaceNeverPanicsOrDrops(t *testing.T) {
	const (
		iters      = 40
		submitters = 8
		perG       = 50
	)
	for iter := 0; iter < iters; iter++ {
		p := newPool(4)
		var ran atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					task := func() { ran.Add(1) }
					if !p.submit(task) {
						task() // refused by a closed pool: inline execution
					}
				}
			}()
		}
		p.close() // races the submitters on purpose
		wg.Wait()
		// close() drains accepted tasks and wg.Wait() covers inline ones,
		// so by here every task has run exactly once.
		if got := ran.Load(); got != submitters*perG {
			t.Fatalf("iter %d: %d tasks ran, want %d", iter, got, submitters*perG)
		}
	}
}

// TestRunAfterCloseExecutesInline pins the engine-level consequence: a job
// submitted after Close is not lost and does not panic — it executes inline
// in the submitter and resolves its ticket normally.
func TestRunAfterCloseExecutesInline(t *testing.T) {
	d := testBench(t)
	var executions atomic.Int64
	e := New(Options{
		Workers: 2,
		runFn: func(d *workload.Descriptor, cfg workload.RunConfig) (*workload.Result, error) {
			executions.Add(1)
			return workload.Run(d, cfg)
		},
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(d, smallCfg())
	if err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	if res == nil || executions.Load() != 1 {
		t.Fatalf("Run after Close did not execute inline (res=%v, executions=%d)",
			res, executions.Load())
	}
}

// TestPoolParkedWorkersWake: workers waiting on an empty queue must be
// woken by a later submit, not leak asleep. A lost wakeup here deadlocks
// the drain in close().
func TestPoolParkedWorkersWake(t *testing.T) {
	p := newPool(4)
	var ran atomic.Int64
	// Let workers park, then submit in pulses; each pulse must complete.
	for pulse := 0; pulse < 20; pulse++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			if !p.submit(func() { ran.Add(1); wg.Done() }) {
				t.Fatal("open pool refused a task")
			}
		}
		wg.Wait()
	}
	p.close()
	if got := ran.Load(); got != 20*16 {
		t.Fatalf("%d tasks ran, want %d", got, 20*16)
	}
}

// TestPoolRunsNewestFirst pins the queue's LIFO order: with the only worker
// held busy, tasks submitted A, B, C run C, B, A — so a min-heap probe
// submitted on an anchor's chain runs ahead of grid cells already queued.
func TestPoolRunsNewestFirst(t *testing.T) {
	p := newPool(1)
	started, release := make(chan struct{}), make(chan struct{})
	p.submit(func() { close(started); <-release })
	<-started
	var order []string
	for _, name := range []string{"A", "B", "C"} {
		p.submit(func() { order = append(order, name) })
	}
	close(release)
	p.close()
	if got := strings.Join(order, ""); got != "CBA" {
		t.Fatalf("tasks ran in order %s, want CBA", got)
	}
}
