package sim

import (
	"fmt"
	"math"
	"testing"
)

// Differential property test: the virtual-service-time engine and the eager
// reference engine (reference_test.go) are driven through the same seeded
// randomized schedule of Exec / Block / Unblock / Abandon / Finish / timer
// traffic, plus Group freezes (Block/Unblock) and gang quanta (Group.Exec),
// and must produce identical event traces and telemetry within timeEps. After
// every step the fast engine's completion queues are audited (auditQueues):
// they must hold exactly one live entry per quantum in flight.
//
// The script's only inputs are the RNG stream and engine-visible state
// (State(), Now()); if the two steppers are equivalent, every callback fires
// in the same order, both consume the RNG identically, and the traces match.
// Any semantic divergence compounds instead of hiding.

type propEvent struct {
	kind string // "done", "timer"
	id   int
	at   float64
}

// propCoverage counts how often a script reached each group edge case the
// fast stepper handles specially, so the test can demand every one occurs.
type propCoverage struct {
	execFrozen     int // a member Execs while its group is frozen
	releaseFrozen  int // a held member is Abandoned or Finished
	gangRelease    int // one gang member is released mid-quantum
	freezeAtFinish int // a freeze lands as a member's quantum completes
}

type propResult struct {
	audit   string // the first failed queue audit, with its step
	cov     propCoverage
	trace   []propEvent
	now     float64
	task    float64
	events  int64
	cpu     []float64
	blocked []float64
	states  []State
}

// runPropScript runs seed's script on the engine mk builds and returns what
// it observed, plus the script's two groups.
func runPropScript[E simAPI[T, G], T simThread, G simGroup[T]](
	seed uint64, mk func(hw int, capacity CapacityFunc) E) (propResult, [2]G) {
	rng := NewRNG(seed)
	hw := 1 + int(rng.Uint64()%4)
	e := mk(hw, nil)

	var res propResult
	nW := 2 + int(rng.Uint64()%5)
	ths := make([]T, nW)
	opsLeft := make([]int, nW)
	for i := range ths {
		ths[i] = e.NewThread(fmt.Sprintf("w%d", i))
		opsLeft[i] = 3 + int(rng.Uint64()%12)
	}

	// The first nM workers form a group frozen as a unit (a collector's
	// mutators); nG more threads form a gang (its STW workers).
	mg := e.NewGroup()
	nM := 1 + int(rng.Uint64()%uint64(nW))
	for i := 0; i < nM; i++ {
		mg.Add(ths[i])
	}
	gg := e.NewGroup()
	gang := make([]T, 1+int(rng.Uint64()%3))
	for i := range gang {
		gang[i] = e.NewThread(fmt.Sprintf("g%d", i))
		gg.Add(gang[i])
	}
	all := append(append([]T(nil), ths...), gang...)

	// freeze blocks g and thaws it after delay, unless something thawed it
	// first.
	freeze := func(g G, delay float64) {
		g.Block()
		e.After(delay, func() {
			if g.isFrozen() {
				g.Unblock()
			}
		})
	}
	gangRunnable := func() (n int) {
		for _, t := range gang {
			if t.State() == StateRunnable {
				n++
			}
		}
		return n
	}

	// Each worker chains random quanta until its budget runs out. A member's
	// completion sometimes freezes its own group first, as an allocation
	// that triggers a pause does; it then Execs inside the freeze.
	var kick func(i int)
	kick = func(i int) {
		if opsLeft[i] <= 0 || ths[i].State() != StateIdle {
			return
		}
		opsLeft[i]--
		work := 1 + float64(rng.Uint64()%1500)
		if i < nM && mg.isFrozen() {
			res.cov.execFrozen++
		}
		ths[i].Exec(work, func() {
			res.trace = append(res.trace, propEvent{"done", i, e.NowF()})
			if i < nM && !mg.isFrozen() && rng.Uint64()%6 == 0 {
				res.cov.freezeAtFinish++
				freeze(mg, float64(1+rng.Uint64()%800))
			}
			kick(i)
		})
	}

	// release records a meddler releasing all[ti], for the coverage counts.
	// Gang threads follow the workers in all.
	release := func(ti int) {
		tgt := all[ti]
		if tgt.isHeld() {
			res.cov.releaseFrozen++
		}
		if ti >= nW && tgt.State() == StateRunnable && gangRunnable() > 1 {
			res.cov.gangRelease++
		}
	}

	// Meddler timers perturb the threads: STW-style block/unblock pairs,
	// abandons, finishes, extra work injection, bare timers, group freezes
	// and gang quanta.
	nT := 4 + int(rng.Uint64()%10)
	for j := 0; j < nT; j++ {
		j := j
		at := float64(1 + rng.Uint64()%4000)
		ti := int(rng.Uint64() % uint64(len(all)))
		tgt := all[ti]
		switch rng.Uint64() % 8 {
		case 0, 1: // pause the target for a while
			delay := float64(1 + rng.Uint64()%800)
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if s := tgt.State(); s == StateRunnable || s == StateIdle {
					release(ti)
					tgt.Block()
					e.After(delay, func() {
						if tgt.State() == StateBlocked {
							tgt.Unblock()
						}
					})
				}
			})
		case 2: // abandon the target's quantum
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if tgt.State() != StateDone {
					release(ti)
					tgt.Abandon()
				}
			})
		case 3: // retire the target (possibly mid-block: the Finish bugfix path)
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if tgt.State() != StateDone {
					release(ti)
					tgt.Finish()
				}
			})
		case 4: // bare timers, touching no thread
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
			})
			e.After(float64(1+rng.Uint64()%6000), func() {})
		case 5: // inject extra work into an idle worker
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if ti < nW && tgt.State() == StateIdle {
					opsLeft[ti] += 2
					kick(ti)
				}
			})
		case 6: // run a gang quantum on every gang thread, if all are idle
			work := float64(1 + rng.Uint64()%1500)
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				for _, t := range gang {
					if t.State() != StateIdle {
						return
					}
				}
				gg.Exec(work, func() {
					res.trace = append(res.trace, propEvent{"gang", j, e.NowF()})
				})
			})
		case 7: // freeze a group for a while: a stop-the-world pause
			g := mg
			if rng.Uint64()%3 == 0 {
				g = gg
			}
			delay := float64(1 + rng.Uint64()%800)
			e.After(at, func() {
				res.trace = append(res.trace, propEvent{"timer", j, e.NowF()})
				if !g.isFrozen() {
					freeze(g, delay)
				}
			})
		}
	}

	for i := range ths {
		kick(i)
	}
	// Step rather than Run, so the fast engine's queues are audited between
	// events; the reference engine has nothing to audit.
	auditor, _ := any(e).(interface{ auditQueues() error })
	for step := 0; e.Step(); step++ {
		if auditor == nil || res.audit != "" {
			continue
		}
		if err := auditor.auditQueues(); err != nil {
			res.audit = fmt.Sprintf("after step %d: %v", step, err)
		}
	}

	res.now = e.NowF()
	res.task = e.TaskClock()
	res.events = e.Events()
	for _, t := range all {
		res.cpu = append(res.cpu, t.CPU())
		res.blocked = append(res.blocked, t.BlockedTime())
		res.states = append(res.states, t.State())
	}
	return res, [2]G{mg, gg}
}

func propClose(a, b float64) bool {
	return math.Abs(a-b) <= timeEps*(1+1e-9*math.Max(math.Abs(a), math.Abs(b)))
}

func TestPropertyFastMatchesReference(t *testing.T) {
	const cases = 1200
	var cov propCoverage
	for seed := uint64(0); seed < cases; seed++ {
		fast, groups := runPropScript[*Engine, *Thread, *Group](seed, NewEngine)
		ref, _ := runPropScript[*refEngine, *refThread, *refGroup](seed, newRefEngine)
		if fast.audit != "" {
			t.Fatalf("seed %d: queue audit %s", seed, fast.audit)
		}
		if n := groups[0].q.len() + groups[1].q.len(); n != 0 {
			t.Fatalf("seed %d: %d sub-heap entries outlive every quantum", seed, n)
		}
		if fast.cov != ref.cov {
			t.Fatalf("seed %d: coverage %+v (fast) vs %+v (reference)", seed, fast.cov, ref.cov)
		}
		cov.execFrozen += fast.cov.execFrozen
		cov.releaseFrozen += fast.cov.releaseFrozen
		cov.gangRelease += fast.cov.gangRelease
		cov.freezeAtFinish += fast.cov.freezeAtFinish

		if len(fast.trace) != len(ref.trace) {
			t.Fatalf("seed %d: trace length %d (fast) vs %d (reference)",
				seed, len(fast.trace), len(ref.trace))
		}
		for k := range fast.trace {
			f, r := fast.trace[k], ref.trace[k]
			if f.kind != r.kind || f.id != r.id || !propClose(f.at, r.at) {
				t.Fatalf("seed %d: trace[%d] = %+v (fast) vs %+v (reference)", seed, k, f, r)
			}
		}
		if !propClose(fast.now, ref.now) {
			t.Fatalf("seed %d: final now %v vs %v", seed, fast.now, ref.now)
		}
		if !propClose(fast.task, ref.task) {
			t.Fatalf("seed %d: task clock %v vs %v", seed, fast.task, ref.task)
		}
		if fast.events != ref.events {
			t.Fatalf("seed %d: events %d vs %d", seed, fast.events, ref.events)
		}
		for i := range fast.cpu {
			if !propClose(fast.cpu[i], ref.cpu[i]) {
				t.Fatalf("seed %d: thread %d cpu %v vs %v", seed, i, fast.cpu[i], ref.cpu[i])
			}
			if !propClose(fast.blocked[i], ref.blocked[i]) {
				t.Fatalf("seed %d: thread %d blocked %v vs %v", seed, i, fast.blocked[i], ref.blocked[i])
			}
			if fast.states[i] != ref.states[i] {
				t.Fatalf("seed %d: thread %d state %v vs %v", seed, i, fast.states[i], ref.states[i])
			}
		}
	}
	if cov.execFrozen == 0 || cov.releaseFrozen == 0 || cov.gangRelease == 0 || cov.freezeAtFinish == 0 {
		t.Fatalf("a group edge case never occurred in %d scripts: %+v", cases, cov)
	}
	t.Logf("group edge cases over %d scripts: %+v", cases, cov)
}
