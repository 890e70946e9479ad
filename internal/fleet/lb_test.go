package fleet

import (
	"fmt"
	"testing"
)

// The linear balancers: O(N)-per-pick scans of the replicas, the
// differential oracles the indexed balancers (lbindex.go) and the fleet runs
// built on them are tested against.

// newReferenceBalancer builds the linear implementation of a policy.
func newReferenceBalancer(p Policy) (balancer, error) {
	switch p {
	case RoundRobin, "":
		return &roundRobin{}, nil
	case LeastOutstanding:
		return leastOutstanding{}, nil
	case GCAware:
		return gcAware{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown balancer policy %q", p)
}

type leastOutstanding struct{ noUpdates }

func (leastOutstanding) pick(reps []backend) Decision {
	best := 0
	for i := 1; i < len(reps); i++ {
		if reps[i].Outstanding() < reps[best].Outstanding() {
			best = i
		}
	}
	return Decision{Replica: best, Reason: ReasonLeastOutstanding}
}

type gcAware struct{ noUpdates }

func (gcAware) pick(reps []backend) Decision {
	best, avoided := -1, 0
	for i, rp := range reps {
		if rp.Paused() {
			avoided++
			continue
		}
		if best < 0 || rp.Outstanding() < reps[best].Outstanding() {
			best = i
		}
	}
	if best < 0 {
		// Whole fleet paused at once: no routing escape, fall back to load.
		d := leastOutstanding{}.pick(reps)
		return Decision{Replica: d.Replica, Reason: ReasonGCAwareFallback}
	}
	reason := ReasonGCAware
	if avoided > 0 {
		reason = ReasonGCAwareAvoid
	}
	return Decision{Replica: best, Reason: reason, Avoided: avoided}
}

// fakeBackend is a balancer test double.
type fakeBackend struct {
	out    int
	paused bool
}

func (f *fakeBackend) Outstanding() int { return f.out }
func (f *fakeBackend) Paused() bool     { return f.paused }

func backends(specs ...fakeBackend) []backend {
	out := make([]backend, len(specs))
	for i := range specs {
		s := specs[i]
		out[i] = &s
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	bal, err := newReferenceBalancer(RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	reps := backends(fakeBackend{}, fakeBackend{}, fakeBackend{})
	for i := 0; i < 9; i++ {
		got := bal.pick(reps)
		if got.Replica != i%3 {
			t.Fatalf("pick %d = %d, want %d", i, got.Replica, i%3)
		}
		if got.Reason != ReasonRoundRobin || got.Avoided != 0 {
			t.Fatalf("pick %d decision = %+v", i, got)
		}
	}
}

func TestLeastOutstandingPicksMin(t *testing.T) {
	bal, err := newReferenceBalancer(LeastOutstanding)
	if err != nil {
		t.Fatal(err)
	}
	got := bal.pick(backends(fakeBackend{out: 4}, fakeBackend{out: 1}, fakeBackend{out: 3}))
	if got.Replica != 1 || got.Reason != ReasonLeastOutstanding {
		t.Fatalf("pick = %+v, want replica 1", got)
	}
	// Ties break to the lowest index.
	if got := bal.pick(backends(fakeBackend{out: 2}, fakeBackend{out: 2})); got.Replica != 0 {
		t.Fatalf("tie pick = %+v, want replica 0", got)
	}
	// Pauses are invisible to the load-only policy: it happily routes into
	// a paused replica when that one has the least outstanding.
	got = bal.pick(backends(fakeBackend{out: 9}, fakeBackend{out: 1, paused: true}))
	if got.Replica != 1 || got.Avoided != 0 {
		t.Fatalf("pause-blind pick = %+v, want replica 1", got)
	}
}

func TestGCAwareRoutesAroundPauses(t *testing.T) {
	bal, err := newReferenceBalancer(GCAware)
	if err != nil {
		t.Fatal(err)
	}
	// The least-loaded replica is mid-STW: route to the least-loaded healthy
	// one, and say so — one replica avoided, reason gc-aware-avoid.
	got := bal.pick(backends(
		fakeBackend{out: 1, paused: true},
		fakeBackend{out: 5},
		fakeBackend{out: 3},
	))
	if got.Replica != 2 {
		t.Fatalf("pick = %+v, want replica 2 (least-loaded unpaused)", got)
	}
	if got.Reason != ReasonGCAwareAvoid || got.Avoided != 1 {
		t.Fatalf("decision = %+v, want gc-aware-avoid with 1 avoided", got)
	}
}

func TestGCAwareNoPausesIsLeastOutstanding(t *testing.T) {
	bal, err := newReferenceBalancer(GCAware)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing paused: identical choice to least-outstanding, reported as a
	// routine gc-aware pick with nothing avoided.
	got := bal.pick(backends(fakeBackend{out: 4}, fakeBackend{out: 0}, fakeBackend{out: 2}))
	if got.Replica != 1 || got.Reason != ReasonGCAware || got.Avoided != 0 {
		t.Fatalf("decision = %+v, want replica 1, gc-aware, 0 avoided", got)
	}
	// Ties among unpaused replicas break to the lowest index, like
	// least-outstanding.
	got = bal.pick(backends(fakeBackend{out: 3}, fakeBackend{out: 3}))
	if got.Replica != 0 {
		t.Fatalf("tie decision = %+v, want replica 0", got)
	}
}

func TestGCAwareSkipsEveryPausedReplica(t *testing.T) {
	bal, err := newReferenceBalancer(GCAware)
	if err != nil {
		t.Fatal(err)
	}
	// Three of four mid-STW: the sole healthy replica wins regardless of
	// load, and the decision counts all three dodges.
	got := bal.pick(backends(
		fakeBackend{out: 0, paused: true},
		fakeBackend{out: 0, paused: true},
		fakeBackend{out: 99},
		fakeBackend{out: 0, paused: true},
	))
	if got.Replica != 2 || got.Reason != ReasonGCAwareAvoid || got.Avoided != 3 {
		t.Fatalf("decision = %+v, want replica 2, gc-aware-avoid, 3 avoided", got)
	}
}

func TestGCAwareAllPausedFallsBack(t *testing.T) {
	bal, err := newReferenceBalancer(GCAware)
	if err != nil {
		t.Fatal(err)
	}
	// Whole fleet paused at once: degrade to plain least-outstanding, and
	// label the decision a fallback (nothing was avoidable).
	got := bal.pick(backends(
		fakeBackend{out: 5, paused: true},
		fakeBackend{out: 2, paused: true},
	))
	if got.Replica != 1 {
		t.Fatalf("all-paused pick = %+v, want replica 1", got)
	}
	if got.Reason != ReasonGCAwareFallback || got.Avoided != 0 {
		t.Fatalf("all-paused decision = %+v, want gc-aware-fallback", got)
	}
	// Fallback ties also break to the lowest index.
	got = bal.pick(backends(
		fakeBackend{out: 7, paused: true},
		fakeBackend{out: 7, paused: true},
	))
	if got.Replica != 0 || got.Reason != ReasonGCAwareFallback {
		t.Fatalf("all-paused tie decision = %+v, want replica 0 fallback", got)
	}
}

// TestGCAwareSingleReplica: with one replica there is never a choice — the
// decision is the replica, paused or not, with the honest reason.
func TestGCAwareSingleReplica(t *testing.T) {
	bal, err := newReferenceBalancer(GCAware)
	if err != nil {
		t.Fatal(err)
	}
	if got := bal.pick(backends(fakeBackend{out: 3})); got.Replica != 0 || got.Reason != ReasonGCAware {
		t.Fatalf("decision = %+v", got)
	}
	if got := bal.pick(backends(fakeBackend{out: 3, paused: true})); got.Replica != 0 || got.Reason != ReasonGCAwareFallback {
		t.Fatalf("paused decision = %+v", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"round-robin", "least-outstanding", "gc-aware"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("unknown policy parsed")
	}
	if _, err := newBalancer("random", 1); err == nil {
		t.Fatal("unknown policy built")
	}
	if _, err := newReferenceBalancer("random"); err == nil {
		t.Fatal("unknown reference policy built")
	}
}
