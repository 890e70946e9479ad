// Package span folds a flat telemetry event stream back into the causal
// structure the collector had when it emitted it: GC cycles become spans
// that own their stop-the-world pauses as children, pacer stalls hang off
// the concurrent cycle whose pacer throttled them, and scheduler activity
// intervals sit on their own track. The result is the intermediate form the
// trace exporters (internal/obs/traceview) render — Chrome trace-event JSON
// for Perfetto, or a plain-text timeline.
//
// # Span model
//
// Events carry two linkage fields. Cycle is ownership: every collection
// (young, full, concurrent) gets a per-run ID stamped on its
// phase-start/phase-end pair and on each gc-pause taken on its behalf.
// Cause is blame without ownership: a pacer-stall's Cause names the
// concurrent cycle whose pacer throttled the allocation, and a degenerate
// collection's Cause names the cancelled cycle it replaced. Build turns
// ownership into parent/child nesting and keeps blame as a cross-link
// (Span.Cause), because a blamed span may already be closed when its victim
// starts — nesting it would corrupt the timeline.
//
// Timestamp conventions follow the emitters: gc-pause events are stamped at
// pause *end* with DurNS the wall time (span [TNS−DurNS, TNS]); pacer-stall
// events are stamped at stall *start* (span [TNS, TNS+DurNS]); quiescent
// events close an activity interval (span [TNS−DurNS, TNS]).
//
// Truncated streams degrade instead of failing: a phase-start with no
// phase-end becomes an Open span clipped to the run's last timestamp, and a
// phase-end with no start is reconstructed from its own duration.
package span

import (
	"sort"

	"chopin/internal/obs"
)

// Track names. Each track renders as one row (Chrome: one thread) per run.
const (
	// TrackGC holds collection-cycle spans (young, full, concurrent, mixed).
	TrackGC = "gc"
	// TrackSTW holds stop-the-world pause spans, children of their cycle.
	TrackSTW = "stw"
	// TrackMutator holds pacer-stall spans, children of the throttling cycle.
	TrackMutator = "mutator"
	// TrackSched holds scheduler activity intervals between quiescent points.
	TrackSched = "sched"
)

// Span is one closed (or clipped) interval on a track.
type Span struct {
	// ID is unique within the tree (1, 2, …, in event order).
	ID int64
	// Parent is the owning span's ID, zero for roots. Pause and stall spans
	// parent to their cycle span; cycle and sched spans are roots.
	Parent int64
	Track  string
	Name   string
	// Start and End are virtual nanoseconds. End >= Start always.
	Start int64
	End   int64
	// Cycle is the collection ID the span belongs to (zero on sched spans).
	Cycle int64
	// Cause is a cross-link to the blamed collection: the cancelled cycle
	// behind a degenerate collection, or the throttling cycle of a stall.
	Cause int64
	// CPUNS and Value carry the closing event's GC CPU and bytes reclaimed
	// (cycle spans only).
	CPUNS float64
	Value float64
	// Open marks a span whose end event never arrived (truncated stream);
	// End is then clipped to the run's last observed timestamp.
	Open bool
}

// DurNS returns the span's duration in nanoseconds.
func (s Span) DurNS() int64 { return s.End - s.Start }

// Mark is an instant event worth flagging on the timeline.
type Mark struct {
	TNS  int64
	Name string // "degenerate-gc", "oom"
	// Cause is the blamed collection ID, zero if unknown.
	Cause int64
}

// Tree is the span forest of one run, plus its instants and sampled series.
type Tree struct {
	Run       string
	Benchmark string
	Collector string
	// Replica is the fleet replica the tree belongs to, 1-based as stamped
	// on events (internal/fleet); zero for ordinary single-process runs.
	// Fleet streams carry one tree per (run, replica) because each replica's
	// collector numbers its cycles independently — merging them would alias
	// cycle IDs.
	Replica int
	// Spans is sorted by Start, then ID. Parent references are by ID.
	Spans []Span
	Marks []Mark
	// Samples are the run's KindSample events in stream order.
	Samples []obs.Event
	// EndNS is the largest virtual timestamp observed in the run.
	EndNS int64
}

// SumTrack returns the total duration of the tree's spans on one track.
// Summing TrackSTW reproduces the run's trace.Log TotalPauseNS; summing
// TrackMutator reproduces its StallNS (locked by tests).
func (t *Tree) SumTrack(track string) float64 {
	var sum float64
	for _, s := range t.Spans {
		if s.Track == track {
			sum += float64(s.DurNS())
		}
	}
	return sum
}

// Span returns the span with the given ID, or nil.
func (t *Tree) Span(id int64) *Span {
	for i := range t.Spans {
		if t.Spans[i].ID == id {
			return &t.Spans[i]
		}
	}
	return nil
}

// builder accumulates one run's tree while streaming events.
type builder struct {
	tree Tree
	// bench and coll are the first benchmark and collector the run's
	// events name; finish writes them into the tree.
	bench, coll obs.Name
	nextID      int64
	// openCycle maps a collection ID to the index (in tree.Spans) of its
	// still-open cycle span; cycleSpan keeps the mapping after close so
	// late pauses and stalls can still resolve their parent.
	openCycle map[int64]int
	cycleSpan map[int64]int64 // collection ID -> span ID
}

func newBuilder(run obs.Name, replica int) *builder {
	return &builder{
		tree:      Tree{Run: run.String(), Replica: replica},
		openCycle: map[int64]int{},
		cycleSpan: map[int64]int64{},
	}
}

func (b *builder) add(s Span) int {
	b.nextID++
	s.ID = b.nextID
	b.tree.Spans = append(b.tree.Spans, s)
	return len(b.tree.Spans) - 1
}

func (b *builder) see(tns int64) {
	if tns > b.tree.EndNS {
		b.tree.EndNS = tns
	}
}

func (b *builder) event(e *obs.Event) {
	if b.bench == 0 {
		b.bench = e.Benchmark
	}
	if b.coll == 0 {
		b.coll = e.Collector
	}
	switch e.Kind {
	case obs.KindGCPhaseStart:
		b.see(e.TNS)
		i := b.add(Span{
			Track: TrackGC, Name: e.Phase.String(),
			Start: e.TNS, End: e.TNS,
			Cycle: e.Cycle, Cause: e.Cause, Open: true,
		})
		b.openCycle[e.Cycle] = i
		b.cycleSpan[e.Cycle] = b.tree.Spans[i].ID
	case obs.KindGCPhaseEnd:
		b.see(e.TNS)
		i, ok := b.openCycle[e.Cycle]
		if !ok {
			// Start event lost (stream began mid-run): reconstruct from the
			// pause duration, the only extent the end event knows.
			i = b.add(Span{
				Track: TrackGC, Name: e.Phase.String(),
				Start: e.TNS - int64(e.DurNS), Cycle: e.Cycle, Cause: e.Cause,
			})
			b.cycleSpan[e.Cycle] = b.tree.Spans[i].ID
		}
		delete(b.openCycle, e.Cycle)
		s := &b.tree.Spans[i]
		s.End = e.TNS
		s.Open = false
		s.CPUNS = e.CPUNS
		s.Value = e.Value
		if e.Phase != 0 {
			// The closing kind wins: a G1 cycle starts "concurrent" and
			// ends "mixed".
			s.Name = e.Phase.String()
		}
	case obs.KindGCPause:
		b.see(e.TNS)
		b.add(Span{
			Track: TrackSTW, Name: "pause", Parent: b.cycleSpan[e.Cycle],
			Start: e.TNS - int64(e.DurNS), End: e.TNS, Cycle: e.Cycle,
		})
	case obs.KindPacerStall:
		end := e.TNS + int64(e.DurNS)
		b.see(end)
		b.add(Span{
			Track: TrackMutator, Name: "stall", Parent: b.cycleSpan[e.Cause],
			Start: e.TNS, End: end, Cycle: e.Cause, Cause: e.Cause,
		})
	case obs.KindQuiescent:
		b.see(e.TNS)
		b.add(Span{
			Track: TrackSched, Name: "active",
			Start: e.TNS - int64(e.DurNS), End: e.TNS, Value: e.Value,
		})
	case obs.KindDegenerateGC:
		b.see(e.TNS)
		b.tree.Marks = append(b.tree.Marks, Mark{TNS: e.TNS, Name: "degenerate-gc", Cause: e.Cause})
	case obs.KindOOM:
		b.see(e.TNS)
		b.tree.Marks = append(b.tree.Marks, Mark{TNS: e.TNS, Name: "oom"})
	case obs.KindSample:
		b.see(e.TNS)
		b.tree.Samples = append(b.tree.Samples, *e)
	}
	// Job, cache and run_end events carry host time or stream metadata, not
	// virtual-run structure; the aggregate reporter owns them.
}

func (b *builder) finish() *Tree {
	b.tree.Benchmark, b.tree.Collector = b.bench.String(), b.coll.String()
	// Clip spans whose end never arrived to the run's horizon.
	for _, i := range sortedValues(b.openCycle) {
		s := &b.tree.Spans[i]
		if b.tree.EndNS > s.End {
			s.End = b.tree.EndNS
		}
	}
	sort.SliceStable(b.tree.Spans, func(i, j int) bool {
		a, c := b.tree.Spans[i], b.tree.Spans[j]
		if a.Start != c.Start {
			return a.Start < c.Start
		}
		return a.ID < c.ID
	})
	sort.SliceStable(b.tree.Marks, func(i, j int) bool {
		return b.tree.Marks[i].TNS < b.tree.Marks[j].TNS
	})
	return &b.tree
}

func sortedValues(m map[int64]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Build folds a telemetry stream into one span tree per run — per (run,
// replica) for fleet streams, whose per-replica collectors each number their
// cycles from 1 — in order of first appearance. Events from different runs
// may interleave arbitrarily (concurrent engine jobs share one sink); events
// within a run must be in emission order, which the seq-stamped JSONL stream
// guarantees.
func Build(events []obs.Event) []*Tree {
	type groupKey struct {
		run     obs.Name
		replica int32
	}
	builders := map[groupKey]*builder{}
	var order []groupKey
	for i := range events {
		e := &events[i]
		k := groupKey{e.Run, e.Replica}
		bb := builders[k]
		if bb == nil {
			bb = newBuilder(e.Run, int(e.Replica))
			builders[k] = bb
			order = append(order, k)
		}
		bb.event(e)
	}
	trees := make([]*Tree, 0, len(order))
	for _, k := range order {
		t := builders[k].finish()
		// A tree with no spans, marks or samples (e.g. the pseudo-run of
		// unstamped engine events) would render as an empty process.
		if len(t.Spans) > 0 || len(t.Marks) > 0 || len(t.Samples) > 0 {
			trees = append(trees, t)
		}
	}
	return trees
}
