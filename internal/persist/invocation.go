package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"chopin/internal/trace"
	"chopin/internal/workload"
)

// InvocationRecord is one cached simulator invocation: the complete Result
// of running a workload under one RunConfig, or the fact that the
// configuration ran out of memory. Key is the canonical content hash of the
// (descriptor, RunConfig) pair that produced it, so a record is valid for
// exactly the job that would reproduce it.
type InvocationRecord struct {
	Key       string  `json:"key"`
	Workload  string  `json:"workload"`
	Collector string  `json:"collector"`
	HeapMB    float64 `json:"heap_mb"`
	Seed      uint64  `json:"seed"`
	// OOM records that the invocation failed with OutOfMemory — a cacheable
	// outcome (the 1x rows of tight sweeps), distinct from transient errors,
	// which are never cached.
	OOM    bool             `json:"oom,omitempty"`
	Result *workload.Result `json:"result,omitempty"`
}

// An invocation record is a framed binary record, not a JSON archive: the
// GC log (every GCEvent and STW Pause of the run) and the per-event
// latencies are nearly all of its bytes, and as fixed-width words they are
// a fifth the size of indented JSON and tens of times faster to encode and
// decode. Only the scalars — the record's identity, the run's config and
// its per-iteration measurements — travel as JSON. All integers are
// little-endian:
//
//	magic    8 B      "chopinv" and the format version byte (2)
//	hdrLen   8 B      length of the header
//	header   hdrLen   compact JSON of the record, Result.Log and
//	                  Result.Events elided
//
// and, only when the record has a Result, its Result.Log:
//
//	StallNS  8 B      float64 bits
//	nEvents  8 B      then 9×8 B per GCEvent: Kind, Start, End, and the
//	                  float64 bits of PauseNS, CPUNS, Reclaimed, Copied,
//	                  UsedAfter, LiveAfter
//	nPauses  8 B      then 2×8 B per Pause: Start, End
//
// followed by its Result.Events:
//
//	present  8 B      0 when Events is nil (no latency recorded), else 1
//	nLat     8 B      only when present, then 2×8 B per Event: Start, End
//
// The encoding is canonical: DecodeInvocation accepts exactly the bytes
// EncodeInvocation produces, so a decoded record re-encodes to its input.
// An empty column decodes as an empty, non-nil slice, the way workload.Run
// builds its log; the presence word keeps a nil Events nil. Version 1
// records carried Events in the JSON header; they are ErrCorrupt, so a
// cache re-simulates and overwrites each once.
var invMagic = [8]byte{'c', 'h', 'o', 'p', 'i', 'n', 'v', 2}

const (
	eventBytes   = 9 * 8
	pauseBytes   = 2 * 8
	latencyBytes = 2 * 8
)

// ErrCorrupt is wrapped by every error DecodeInvocation and LoadInvocation
// return for bytes that are not a valid invocation record: torn, oversized,
// malformed, or written in another format.
var ErrCorrupt = errors.New("corrupt invocation record")

var le = binary.LittleEndian

// SaveInvocation writes one cached invocation record, write-then-rename,
// encoding it into buf's storage (AppendInvocation(buf[:0], r)). It returns
// the buffer, so a writer that passes it back encodes every record into the
// same storage; nil is a fine first buffer.
func SaveInvocation(path string, r *InvocationRecord, buf []byte) ([]byte, error) {
	data, err := AppendInvocation(buf[:0], r)
	if err != nil {
		return buf, err
	}
	return data, writeFile(path, data)
}

// LoadInvocation reads one cached invocation record, reading the file into
// buf's storage. It returns the buffer, so a reader that passes it back
// reads every record into the same storage; nil is a fine first buffer.
// The record copies every value out of the buffer and keeps no reference
// into it.
func LoadInvocation(path string, buf []byte) (*InvocationRecord, []byte, error) {
	data, err := readFile(path, buf)
	if err != nil {
		return nil, data, fmt.Errorf("persist: %w", err)
	}
	r, err := DecodeInvocation(data)
	if err != nil {
		return nil, data, fmt.Errorf("persist: %s: %w", path, err)
	}
	return r, data, nil
}

// readFile reads the file at path into buf's storage, growing it at most
// once. Records are published by rename and never change in place, so the
// size Stat reports is the size to read.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, err
	}
	buf = slices.Grow(buf[:0], int(fi.Size()))[:fi.Size()]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

// EncodeInvocation frames the record in the binary invocation format. A
// record must carry a Result with its GC log, or be an OOM.
func EncodeInvocation(r *InvocationRecord) ([]byte, error) {
	return AppendInvocation(nil, r)
}

// AppendInvocation appends the record's EncodeInvocation bytes to dst and
// returns the extended buffer, growing it at most once. A writer that
// passes the previous record's buffer back as dst[:0] encodes every record
// into the same storage. On error dst is returned unchanged.
func AppendInvocation(dst []byte, r *InvocationRecord) ([]byte, error) {
	if !r.OOM && r.Result == nil {
		return dst, fmt.Errorf("persist: invocation record %q with neither result nor OOM", r.Key)
	}
	if r.Result != nil && r.Result.Log == nil {
		return dst, fmt.Errorf("persist: invocation record %q: result without GC log", r.Key)
	}
	hdr, err := json.Marshal(header(r))
	if err != nil {
		return dst, fmt.Errorf("persist: encoding invocation %q: %w", r.Key, err)
	}
	size := len(invMagic) + 8 + len(hdr)
	if r.Result != nil {
		log := r.Result.Log
		size += 5*8 + len(log.Events)*eventBytes + len(log.Pauses)*pauseBytes +
			len(r.Result.Events)*latencyBytes
	}
	b := slices.Grow(dst, size)
	b = append(b, invMagic[:]...)
	b = le.AppendUint64(b, uint64(len(hdr)))
	b = append(b, hdr...)
	if r.Result == nil {
		return b, nil
	}
	log := r.Result.Log
	b = le.AppendUint64(b, math.Float64bits(log.StallNS))
	b = le.AppendUint64(b, uint64(len(log.Events)))
	for _, e := range log.Events {
		b = le.AppendUint64(b, uint64(e.Kind))
		b = le.AppendUint64(b, uint64(e.Start))
		b = le.AppendUint64(b, uint64(e.End))
		b = le.AppendUint64(b, math.Float64bits(e.PauseNS))
		b = le.AppendUint64(b, math.Float64bits(e.CPUNS))
		b = le.AppendUint64(b, math.Float64bits(e.Reclaimed))
		b = le.AppendUint64(b, math.Float64bits(e.Copied))
		b = le.AppendUint64(b, math.Float64bits(e.UsedAfter))
		b = le.AppendUint64(b, math.Float64bits(e.LiveAfter))
	}
	b = le.AppendUint64(b, uint64(len(log.Pauses)))
	for _, p := range log.Pauses {
		b = le.AppendUint64(b, uint64(p.Start))
		b = le.AppendUint64(b, uint64(p.End))
	}
	if r.Result.Events == nil {
		return le.AppendUint64(b, 0), nil
	}
	b = le.AppendUint64(b, 1)
	b = le.AppendUint64(b, uint64(len(r.Result.Events)))
	for _, e := range r.Result.Events {
		b = le.AppendUint64(b, uint64(e.Start))
		b = le.AppendUint64(b, uint64(e.End))
	}
	return b, nil
}

// header returns the record as its JSON header carries it: every field but
// Result.Log and Result.Events, which travel in the binary columns.
func header(r *InvocationRecord) *InvocationRecord {
	if r.Result == nil {
		return r
	}
	h, res := *r, *r.Result
	res.Log, res.Events = nil, nil
	h.Result = &res
	return &h
}

// DecodeInvocation parses a record EncodeInvocation framed. Any input that
// is not exactly such a record — short, oversized, malformed, non-canonical
// or carrying neither result nor OOM — yields an error wrapping ErrCorrupt.
// Counts are checked against the bytes left before anything is allocated
// from them.
func DecodeInvocation(b []byte) (*InvocationRecord, error) {
	d := decoder{b: b}
	if magic, ok := d.next(len(invMagic)); !ok || !bytes.Equal(magic, invMagic[:]) {
		return nil, fmt.Errorf("%w: not a binary invocation record", ErrCorrupt)
	}
	n, ok := d.uint64()
	if !ok || n > uint64(len(d.b)) {
		return nil, fmt.Errorf("%w: header length exceeds the %d bytes left", ErrCorrupt, len(d.b))
	}
	hdr, _ := d.next(int(n))
	var r InvocationRecord
	if err := json.Unmarshal(hdr, &r); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrCorrupt, err)
	}
	if canon, err := json.Marshal(header(&r)); err != nil || !bytes.Equal(canon, hdr) {
		return nil, fmt.Errorf("%w: non-canonical header", ErrCorrupt)
	}
	if !r.OOM && r.Result == nil {
		return nil, fmt.Errorf("%w: neither result nor OOM", ErrCorrupt)
	}
	if r.Result != nil {
		log, err := d.log()
		if err != nil {
			return nil, err
		}
		r.Result.Log = log
		if r.Result.Events, err = d.latencies(); err != nil {
			return nil, err
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return &r, nil
}

// decoder consumes a record front to back; b is what is left.
type decoder struct{ b []byte }

func (d *decoder) next(n int) ([]byte, bool) {
	if n > len(d.b) {
		return nil, false
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p, true
}

func (d *decoder) uint64() (uint64, bool) {
	p, ok := d.next(8)
	if !ok {
		return 0, false
	}
	return le.Uint64(p), true
}

// column reads a count of width-byte entries and returns their bytes,
// refusing any count the bytes left cannot hold.
func (d *decoder) column(width int, what string) (int, []byte, error) {
	n, ok := d.uint64()
	if !ok || n > uint64(len(d.b)/width) {
		return 0, nil, fmt.Errorf("%w: %s count exceeds the %d bytes left", ErrCorrupt, what, len(d.b))
	}
	p, _ := d.next(int(n) * width)
	return int(n), p, nil
}

func (d *decoder) log() (*trace.Log, error) {
	stall, ok := d.uint64()
	if !ok {
		return nil, fmt.Errorf("%w: torn log section", ErrCorrupt)
	}
	log := &trace.Log{StallNS: math.Float64frombits(stall)}

	n, p, err := d.column(eventBytes, "event")
	if err != nil {
		return nil, err
	}
	log.Events = make([]trace.GCEvent, n)
	for i := range log.Events {
		w := p[i*eventBytes:]
		kind := int64(le.Uint64(w))
		if int64(int(kind)) != kind {
			return nil, fmt.Errorf("%w: event %d kind %d out of range", ErrCorrupt, i, kind)
		}
		log.Events[i] = trace.GCEvent{
			Kind:      trace.GCKind(kind),
			Start:     int64(le.Uint64(w[8:])),
			End:       int64(le.Uint64(w[16:])),
			PauseNS:   math.Float64frombits(le.Uint64(w[24:])),
			CPUNS:     math.Float64frombits(le.Uint64(w[32:])),
			Reclaimed: math.Float64frombits(le.Uint64(w[40:])),
			Copied:    math.Float64frombits(le.Uint64(w[48:])),
			UsedAfter: math.Float64frombits(le.Uint64(w[56:])),
			LiveAfter: math.Float64frombits(le.Uint64(w[64:])),
		}
	}

	n, p, err = d.column(pauseBytes, "pause")
	if err != nil {
		return nil, err
	}
	log.Pauses = make([]trace.Pause, n)
	for i := range log.Pauses {
		w := p[i*pauseBytes:]
		log.Pauses[i] = trace.Pause{Start: int64(le.Uint64(w)), End: int64(le.Uint64(w[8:]))}
	}
	return log, nil
}

// latencies reads the Result.Events column: a presence word, then, when it
// is 1, the count and the entries.
func (d *decoder) latencies() ([]workload.Event, error) {
	present, ok := d.uint64()
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: torn latency column", ErrCorrupt)
	case present == 0:
		return nil, nil
	case present != 1:
		return nil, fmt.Errorf("%w: latency presence word %d", ErrCorrupt, present)
	}
	n, p, err := d.column(latencyBytes, "latency")
	if err != nil {
		return nil, err
	}
	events := make([]workload.Event, n)
	for i := range events {
		w := p[i*latencyBytes:]
		events[i] = workload.Event{Start: int64(le.Uint64(w)), End: int64(le.Uint64(w[8:]))}
	}
	return events, nil
}
