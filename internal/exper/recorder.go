package exper

import "chopin/internal/obs"

// jobRecorder is the worker-owned telemetry buffer for one executing job.
// It captures the run's whole event stream in memory, stamping job identity
// (key, benchmark, collector) onto events that do not already carry it —
// replicating obs.WithRun — and is flushed to the shared sink in a single
// batch at the job boundary (obs.RecordAll), so concurrent jobs
// contend the sink once per job instead of once per event.
//
// A simulator run records from exactly one goroutine, and the buffer is
// owned by the executing worker for exactly one job (pooled in
// Engine.bufs between jobs), so it needs no lock — unlike the shared sinks
// behind the Recorder contract.
type jobRecorder struct {
	names  obs.RunNames
	events []obs.Event
}

// reset prepares a pooled buffer for a new job, retaining its backing array.
func (b *jobRecorder) reset(names obs.RunNames) {
	b.names = names
	b.events = b.events[:0]
}

func (b *jobRecorder) Enabled() bool { return true }

func (b *jobRecorder) Record(e obs.Event) {
	b.names.Stamp(&e)
	b.events = append(b.events, e)
}
