package fleet

import "fmt"

// Load balancers.
//
// The balancer chooses, at each arrival's injection time, which replica
// serves it. It sees only what a real front-end could see — per-replica
// outstanding counts and (for the GC-aware policy) whether a replica is
// currently inside a stop-the-world pause, the signal a real balancer
// approximates with health-check latency or explicit load shedding. Policies
// are deterministic: same arrival sequence and replica states, same routing.

// Policy names a load-balancing policy.
type Policy string

const (
	// RoundRobin rotates arrivals across replicas in index order, blind to
	// load — the baseline every serving stack starts from.
	RoundRobin Policy = "round-robin"
	// LeastOutstanding routes to the replica with the fewest requests
	// injected but not yet completed (queued + in service), lowest index on
	// ties — the classic least-connections policy.
	LeastOutstanding Policy = "least-outstanding"
	// GCAware is LeastOutstanding restricted to replicas not currently in a
	// stop-the-world pause; when every replica is paused it degrades to
	// plain LeastOutstanding. This is the policy the fleet experiment
	// exists to evaluate: how much tail latency does routing around pauses
	// recover, per collector?
	GCAware Policy = "gc-aware"
)

// ParsePolicy parses a policy name (the -lb flag).
func ParsePolicy(name string) (Policy, error) {
	switch Policy(name) {
	case RoundRobin, LeastOutstanding, GCAware:
		return Policy(name), nil
	}
	return "", fmt.Errorf("fleet: unknown balancer policy %q (want round-robin, least-outstanding or gc-aware)", name)
}

// backend is the balancer's view of one replica: the signals a front-end
// could realistically observe. Narrowing the interface keeps policies
// unit-testable without simulated replicas.
type backend interface {
	Outstanding() int
	Paused() bool
}

// Decision reasons, stamped onto fleet-route telemetry events so a trace
// reader can tell a routine pick from an active GC dodge.
const (
	// ReasonRoundRobin: the rotation landed here.
	ReasonRoundRobin = "round-robin"
	// ReasonLeastOutstanding: fewest outstanding requests.
	ReasonLeastOutstanding = "least-outstanding"
	// ReasonGCAware: least outstanding with no replica mid-pause to avoid.
	ReasonGCAware = "gc-aware"
	// ReasonGCAwareAvoid: least outstanding among unpaused replicas, with at
	// least one mid-STW replica routed around (Decision.Avoided counts them).
	ReasonGCAwareAvoid = "gc-aware-avoid"
	// ReasonGCAwareFallback: every replica was mid-pause at once, so the
	// policy degraded to plain least-outstanding — no escape existed.
	ReasonGCAwareFallback = "gc-aware-fallback"
)

// Decision is one balancer choice with its explanation: which replica serves
// the arrival, why, and how many mid-STW replicas were routed around (the
// "routed away from replica 2 mid-pause" evidence request traces carry).
type Decision struct {
	Replica int
	Reason  string
	// Avoided counts replicas skipped because they were inside a
	// stop-the-world pause at decision time (gc-aware only; zero when the
	// policy had no choice, including the all-paused fallback).
	Avoided int
}

// balancer picks the replica to serve the next arrival. The driver mirrors
// replica state into the balancer through the three update methods — one
// call per injection, completion and pause transition — which is what lets
// indexed policies answer pick in O(log N) without rescanning the fleet.
// Policies that derive state at pick time (round-robin, and the linear
// oracles the tests check the indexed policies against) implement them as
// no-ops.
type balancer interface {
	pick(reps []backend) Decision
	inject(i int)
	complete(i int)
	setPaused(i int, paused bool)
}

// newBalancer builds the production balancer for n replicas: round-robin, or
// a tournament-tree-indexed policy whose picks cost O(log N) (see
// lbindex.go). n must be ≥ 1 — config validation rejects smaller fleets
// before a balancer is built.
func newBalancer(p Policy, n int) (balancer, error) {
	if n < 1 {
		return nil, &ConfigError{Field: "replicas", Reason: fmt.Sprintf("fleet needs at least one replica, got %d", n)}
	}
	switch p {
	case RoundRobin, "":
		return &roundRobin{}, nil
	case LeastOutstanding:
		return newLeastOutstandingIndex(n), nil
	case GCAware:
		return newGCAwareIndex(n), nil
	}
	return nil, fmt.Errorf("fleet: unknown balancer policy %q", p)
}

// noUpdates is embedded by policies that read replica state at pick time (or
// ignore it entirely) instead of maintaining an index.
type noUpdates struct{}

func (noUpdates) inject(int)          {}
func (noUpdates) complete(int)        {}
func (noUpdates) setPaused(int, bool) {}

type roundRobin struct {
	noUpdates
	n int
}

func (rr *roundRobin) pick(reps []backend) Decision {
	i := rr.n % len(reps)
	rr.n++
	return Decision{Replica: i, Reason: ReasonRoundRobin}
}
