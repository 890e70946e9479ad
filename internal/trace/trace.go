// Package trace records garbage-collection telemetry during a simulated run:
// the GC event log, stop-the-world pause intervals, allocation-stall time and
// post-GC heap occupancy samples.
//
// This is the simulated equivalent of what the paper obtains from JVMTI and
// GC logs, and it feeds every downstream methodology: LBO subtracts the
// easily-attributable costs recorded here, MMU and the GCP nominal statistic
// are computed from the pause intervals, GCA/GCC/GCM come from the event log,
// and the appendix heap-size figures replay the occupancy samples.
package trace

import "fmt"

// GCKind classifies a collection event.
type GCKind int

// Collection kinds.
const (
	GCYoung      GCKind = iota // nursery collection (STW or concurrent minor)
	GCFull                     // full-heap STW collection
	GCConcurrent               // concurrent cycle (mark/evacuate)
	GCDegenerate               // concurrent collector fell back to STW full
	GCMixed                    // G1 post-mark mixed evacuation
)

func (k GCKind) String() string {
	switch k {
	case GCYoung:
		return "young"
	case GCFull:
		return "full"
	case GCConcurrent:
		return "concurrent"
	case GCDegenerate:
		return "degenerate"
	case GCMixed:
		return "mixed"
	}
	return fmt.Sprintf("gc(%d)", int(k))
}

// GCEvent is one logged collection.
type GCEvent struct {
	Kind      GCKind
	Start     int64   // virtual ns at which the collection began
	End       int64   // virtual ns at which its effects were applied
	PauseNS   float64 // total STW wall time within the event
	CPUNS     float64 // CPU consumed by GC threads for the event
	Reclaimed float64 // bytes returned to free space
	Copied    float64 // bytes moved
	UsedAfter float64 // heap occupancy after the event
	LiveAfter float64 // declared live set after the event
}

// Pause is one STW interval during which all mutators were blocked.
type Pause struct {
	Start, End int64
}

// Duration returns the pause length in nanoseconds.
func (p Pause) Duration() float64 { return float64(p.End - p.Start) }

// Log accumulates telemetry for a single benchmark invocation.
type Log struct {
	Events  []GCEvent
	Pauses  []Pause
	StallNS float64 // cumulative mutator allocation-stall time (pacing)
}

// AddEvent appends a collection event.
func (l *Log) AddEvent(e GCEvent) { l.Events = append(l.Events, e) }

// AddPause appends an STW interval.
func (l *Log) AddPause(p Pause) { l.Pauses = append(l.Pauses, p) }

// AddStall accumulates mutator allocation-stall wall time.
func (l *Log) AddStall(ns float64) { l.StallNS += ns }

// TotalPauseNS returns the summed STW wall time.
func (l *Log) TotalPauseNS() float64 {
	var sum float64
	for _, p := range l.Pauses {
		sum += p.Duration()
	}
	return sum
}

// TotalGCCPUNS returns the summed GC-thread CPU time.
func (l *Log) TotalGCCPUNS() float64 {
	var sum float64
	for _, e := range l.Events {
		sum += e.CPUNS
	}
	return sum
}

// Count returns the number of events of the given kind.
func (l *Log) Count(kind GCKind) int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// MaxPauseNS returns the longest single pause, or 0 for a pause-free run.
func (l *Log) MaxPauseNS() float64 {
	var max float64
	for _, p := range l.Pauses {
		if d := p.Duration(); d > max {
			max = d
		}
	}
	return max
}

// Clone returns a copy of the log whose event and pause slices hold exactly
// their length (an empty column stays a non-nil empty slice) and share no
// storage with l.
func (l *Log) Clone() *Log {
	c := &Log{
		Events:  make([]GCEvent, len(l.Events)),
		Pauses:  make([]Pause, len(l.Pauses)),
		StallNS: l.StallNS,
	}
	copy(c.Events, l.Events)
	copy(c.Pauses, l.Pauses)
	return c
}

// Reset clears the log for reuse between invocations.
func (l *Log) Reset() {
	l.Events = l.Events[:0]
	l.Pauses = l.Pauses[:0]
	l.StallNS = 0
}
