package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONL is a Recorder that serializes events as one JSON object per line —
// the interchange format cmd/obsreport consumes. Record copies each event
// into a batch under a mutex; a full batch goes, in mutex order, to one
// writer goroutine that encodes and writes it, so the recording goroutine
// never encodes and pool workers recording concurrently never interleave
// bytes within a line. The writer stamps every event with a monotonically
// increasing sequence number, and Close terminates the stream with a
// run_end event, so decoders can tell a clean stream from a truncated one
// and detect dropped events (DecodeStream).
//
// Each line is assembled by schema-specific appends (appendEvent) rather
// than reflection, and is byte-for-byte what json.Encoder.Encode writes for
// the Event: the stream format is the encoding/json one.
type JSONL struct {
	mu     sync.Mutex
	batch  []Event // recorded since the last hand-over to the writer
	closed bool

	batches chan jsonlBatch // to the writer, in stream order
	free    chan []Event    // spent batches, back from the writer
	count   chan int64      // the writer's answer to a counting batch
	done    chan struct{}   // closed when the writer exits

	// The writer goroutine owns these until it exits; then Close does.
	bw   *bufio.Writer
	line []byte       // reused per event
	sync func() error // underlying writer's Sync, when it has one
	err  error        // first write error; later events are dropped
	seen int64
}

// jsonlBatchLen is how many events Record gathers before handing them to
// the writer goroutine.
const jsonlBatchLen = 512

// jsonlBatch is one hand-over to the writer. When count is set, the writer
// answers on JSONL.count with its event count once evs are written.
type jsonlBatch struct {
	evs   []Event
	count bool
}

// NewJSONL wraps w in a JSONL recorder and starts its writer goroutine. The
// caller owns w; call Close to write out recorded events and stop the
// writer before discarding the recorder or closing w. When w has a Sync
// method (*os.File does), Close also syncs it, so a completed stream
// survives a host crash immediately after the run.
func NewJSONL(w io.Writer) *JSONL {
	const queued = 4 // full batches waiting for the writer
	j := &JSONL{
		batch:   make([]Event, 0, jsonlBatchLen),
		batches: make(chan jsonlBatch, queued),
		free:    make(chan []Event, queued+2),
		count:   make(chan int64),
		done:    make(chan struct{}),
		bw:      bufio.NewWriterSize(w, 64<<10),
	}
	if s, ok := w.(interface{ Sync() error }); ok {
		j.sync = s.Sync
	}
	go j.write()
	return j
}

// Enabled always reports true.
func (j *JSONL) Enabled() bool { return true }

// Record queues the event as the stream's next JSON line. The first write
// error sticks: later events are dropped and the error is reported by
// Close, so a full disk degrades telemetry rather than the experiment.
// After Close, Record does nothing.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.batch = append(j.batch, e)
	if len(j.batch) == jsonlBatchLen {
		j.handOver(false)
	}
}

// RecordBatch queues a slice of events under one lock acquisition — the
// flush path for per-job buffers, which batch a whole invocation's
// telemetry and hand it over at the job boundary instead of contending the
// sink once per event.
func (j *JSONL) RecordBatch(evs []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	for len(evs) > 0 {
		n := copy(j.batch[len(j.batch):jsonlBatchLen], evs)
		j.batch = j.batch[:len(j.batch)+n]
		evs = evs[n:]
		if len(j.batch) == jsonlBatchLen {
			j.handOver(false)
		}
	}
}

// handOver sends the current batch to the writer and starts a new one,
// reusing a spent batch when the writer has returned one. j.mu is held, so
// batches reach the writer in the order their events were recorded.
func (j *JSONL) handOver(count bool) {
	b := jsonlBatch{count: count}
	if len(j.batch) > 0 {
		b.evs = j.batch
		select {
		case j.batch = <-j.free:
		default:
			j.batch = make([]Event, 0, jsonlBatchLen)
		}
	}
	j.batches <- b
}

// write is the writer goroutine: it writes each batch's events in order,
// answers counting batches and recycles spent batches, until Close closes
// j.batches.
func (j *JSONL) write() {
	defer close(j.done)
	for b := range j.batches {
		for i := range b.evs {
			j.record(&b.evs[i])
		}
		if b.count {
			j.count <- j.seen
		}
		if b.evs != nil {
			select {
			case j.free <- b.evs[:0]:
			default:
			}
		}
	}
}

// record writes one event, stamping the stream's next sequence number. Only
// the writer goroutine calls it, and Close once the writer has exited.
func (j *JSONL) record(e *Event) {
	if j.err != nil {
		return
	}
	e.Seq = j.seen + 1
	line, ok := appendEvent(j.line[:0], e)
	j.line = line
	if !ok {
		// The error encoding/json gives for the NaN or ±Inf is the one kept.
		_, err := json.Marshal(e)
		j.err = fmt.Errorf("obs: writing event: %w", err)
		return
	}
	if _, err := j.bw.Write(line); err != nil {
		j.err = fmt.Errorf("obs: writing event: %w", err)
		return
	}
	j.seen++
}

// Events returns how many events have been written (and not dropped): it
// hands the writer the events recorded so far and waits for its count.
// After Close it returns the final count, the run_end event included.
func (j *JSONL) Events() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.seen
	}
	j.handOver(true)
	return <-j.count
}

// Close writes out the recorded events, stops the writer goroutine and
// terminates the stream with a run_end event (whose Value is the number of
// events written before it). It then flushes, syncs the underlying writer
// when it supports it, and returns the first error encountered by a write,
// the flush or the sync. It does not close the underlying writer. A stream
// decoded without a trailing run_end was crash-truncated, not short. A
// second Close writes nothing and returns the first Close's error.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if len(j.batch) > 0 {
		j.batches <- jsonlBatch{evs: j.batch}
	}
	j.batch = nil
	close(j.batches)
	<-j.done
	j.record(&Event{Kind: KindRunEnd, Value: float64(j.seen)})
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("obs: flushing events: %w", err)
	}
	if j.sync != nil {
		if err := j.sync(); err != nil && j.err == nil {
			j.err = fmt.Errorf("obs: syncing events: %w", err)
		}
	}
	return j.err
}

// DecodeJSONL reads a JSONL event stream, calling fn for each event. Blank
// lines are skipped; a malformed line aborts with its event number, since a
// telemetry file is machine-written and corruption means truncation.
//
// Lines in the canonical shape the JSONL sink writes — one object per line,
// no whitespace, known keys only, plain-ASCII strings, JSON numbers and
// integers in the integer fields — are parsed directly (lineParser). At the
// first line that is not canonical (a newer schema's field, whitespace,
// escapes, a torn tail, an overlong line) the rest of the stream, that line
// included, decodes through encoding/json, so what is accepted and every
// error are exactly encoding/json's (a *json.SyntaxError's Offset counts
// from the line where encoding/json took over).
func DecodeJSONL(r io.Reader, fn func(Event) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var p lineParser
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == nil {
			var e Event
			if p.parse(line, &e) {
				if err := fn(e); err != nil {
					return err
				}
				continue
			}
		}
		// Hand this line and the rest of the stream to encoding/json.
		rest := []io.Reader{bytes.NewReader(bytes.Clone(line))}
		switch err {
		case nil, bufio.ErrBufferFull:
			rest = append(rest, br)
		case io.EOF:
		default:
			// encoding/json reports a read error once the bytes before it
			// are used up, and never reads again.
			rest = append(rest, failedReader{err})
		}
		return decodeJSON(io.MultiReader(rest...), n, fn)
	}
}

// decodeJSON is DecodeJSONL's encoding/json path: it decodes every value in
// r, numbering events from n.
func decodeJSON(r io.Reader, n int, fn func(Event) error) error {
	dec := json.NewDecoder(r)
	for ; ; n++ {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("obs: event %d: %w", n, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// failedReader is the remainder of a stream whose read failed.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }

// StreamInfo summarizes the integrity of a decoded telemetry stream.
type StreamInfo struct {
	// Events is the number of events decoded (including the run_end).
	Events int64
	// Clean reports that the stream ended with a run_end event: the sink
	// was closed in an orderly fashion. A false Clean means the producing
	// run crashed or was killed mid-stream.
	Clean bool
	// Gaps counts sequence numbers skipped between consecutive events —
	// events that were recorded (or claimed) upstream but never reached the
	// stream. Zero on a healthy file.
	Gaps int64
	// OutOfOrder counts events whose sequence number did not increase over
	// the previous one (reordered or duplicated lines).
	OutOfOrder int64
	// Unsequenced counts events with no sequence number at all (streams
	// written before sequencing, or events hand-built in tests).
	Unsequenced int64
	// Unknown counts events whose kind this binary does not know — a stream
	// written by a newer schema. They are audited for sequence integrity but
	// not passed to the decode callback; an unknown kind is forward
	// compatibility at work, not corruption, so Err ignores it.
	Unknown int64
}

// Err returns a non-nil error describing the first integrity problem the
// info records (truncation, gaps, reordering), or nil for a healthy stream.
func (s StreamInfo) Err() error {
	switch {
	case !s.Clean:
		return fmt.Errorf("obs: stream truncated: %d events and no run_end", s.Events)
	case s.Gaps > 0:
		return fmt.Errorf("obs: stream dropped %d events (sequence gaps)", s.Gaps)
	case s.OutOfOrder > 0:
		return fmt.Errorf("obs: %d events out of sequence order", s.OutOfOrder)
	}
	return nil
}

// DecodeStream reads a JSONL telemetry stream like DecodeJSONL while
// auditing its integrity: sequence-number gaps, reordering, and whether the
// stream terminates with a clean run_end. The returned StreamInfo is valid
// even when decoding aborts early (the prefix is audited); fn also receives
// the terminal run_end event. Events of a kind this binary does not know
// (KindUnknown after lenient decoding) are counted in info.Unknown and
// skipped — never handed to fn — so a stream written by a newer schema
// degrades to partial decoding instead of failure.
func DecodeStream(r io.Reader, fn func(Event) error) (StreamInfo, error) {
	var a streamAudit
	err := DecodeJSONL(r, func(e Event) error {
		if !a.add(&e) || fn == nil {
			return nil
		}
		return fn(e)
	})
	if err != nil {
		a.info.Clean = false
	}
	return a.info, err
}

// streamAudit accumulates DecodeStream's StreamInfo one event at a time.
type streamAudit struct {
	info    StreamInfo
	lastSeq int64
}

// add audits e and reports whether its kind is known, i.e. whether it
// should reach the decode callback.
func (a *streamAudit) add(e *Event) bool {
	a.info.Events++
	a.info.Clean = e.Kind == KindRunEnd // only counts if nothing follows
	switch {
	case e.Seq == 0:
		a.info.Unsequenced++
	case e.Seq <= a.lastSeq:
		a.info.OutOfOrder++
	default:
		if a.lastSeq != 0 && e.Seq != a.lastSeq+1 {
			a.info.Gaps += e.Seq - a.lastSeq - 1
		}
		a.lastSeq = e.Seq
	}
	if e.Kind == KindUnknown {
		a.info.Unknown++
		return false
	}
	return true
}
