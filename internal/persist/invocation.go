package persist

import (
	"bytes"
	"encoding/binary"
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
// configuration ran out of memory — a cacheable outcome (the 1x rows of
// tight sweeps), distinct from transient errors, which are never cached. A
// record holds exactly one of the two. Key is the canonical content hash of
// the (descriptor, RunConfig) pair that produced it, so a record is valid
// for exactly the job that would reproduce it. That job fixes the Result's
// Workload and Config, so the record does not store them: they decode as
// zero values, and the cache restores them from the job it serves.
type InvocationRecord struct {
	Key    string
	OOM    bool
	Result *workload.Result
}

// An invocation record is a framed binary record of little-endian 8-byte
// words, floats as their float64 bits. The GC log (every GCEvent and STW
// Pause of the run) and the per-event latencies are nearly all of its
// bytes; as fixed-width words they are a fifth the size of indented JSON
// and tens of times faster to encode and decode.
//
//	magic    8 B      "chopinv" and the format version byte (3)
//	keyLen   8 B      then the key's bytes
//	result   8 B      0: an OOM, and the record ends; 1: a Result follows
//	scalars  2×8 B    GCCPUNS, MutatorCPUNS
//	nIter    8 B      then 6×8 B per IterationResult: WallNS, CPUNS,
//	                  KernelNS, Allocated, StartNS, EndNS
//	StallNS  8 B      the first word of the Result.Log
//	nEvents  8 B      then 9×8 B per GCEvent: Kind, Start, End, PauseNS,
//	                  CPUNS, Reclaimed, Copied, UsedAfter, LiveAfter
//	nPauses  8 B      then 2×8 B per Pause: Start, End
//	present  8 B      0 when Result.Events is nil (no latency recorded),
//	                  and the record ends; else 1, followed by
//	nLat     8 B      then 2×8 B per Event: Start, End
//
// With every field a fixed-width word the encoding is canonical:
// DecodeInvocation accepts exactly the bytes EncodeInvocation produces, so
// a decoded record re-encodes to its input. An empty column decodes as an
// empty, non-nil slice, the way workload.Run builds its log; the presence
// word keeps a nil Events nil. Formats 1 and 2 carried a JSON header; their
// records are ErrCorrupt, so a cache re-simulates and overwrites each once.
var invMagic = [8]byte{'c', 'h', 'o', 'p', 'i', 'n', 'v', 3}

const (
	iterationBytes = 6 * 8
	eventBytes     = 9 * 8
	pauseBytes     = 2 * 8
	latencyBytes   = 2 * 8
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
	res := r.Result
	if r.OOM == (res != nil) {
		return dst, fmt.Errorf("persist: invocation record %q needs exactly one of result and OOM", r.Key)
	}
	if res != nil && res.Log == nil {
		return dst, fmt.Errorf("persist: invocation record %q: result without GC log", r.Key)
	}
	size := len(invMagic) + 2*8 + len(r.Key)
	if res != nil {
		size += 8*8 + len(res.Iterations)*iterationBytes + len(res.Log.Events)*eventBytes +
			len(res.Log.Pauses)*pauseBytes + len(res.Events)*latencyBytes
	}
	b := append(slices.Grow(dst, size), invMagic[:]...)
	b = append(appendWords(b, uint64(len(r.Key))), r.Key...)
	if res == nil {
		return appendWords(b, 0), nil
	}
	f, log := math.Float64bits, res.Log
	b = appendWords(b, 1, f(res.GCCPUNS), f(res.MutatorCPUNS), uint64(len(res.Iterations)))
	for _, it := range res.Iterations {
		b = appendWords(b, f(it.WallNS), f(it.CPUNS), f(it.KernelNS), f(it.Allocated),
			uint64(it.StartNS), uint64(it.EndNS))
	}
	b = appendWords(b, f(log.StallNS), uint64(len(log.Events)))
	for _, e := range log.Events {
		b = appendWords(b, uint64(e.Kind), uint64(e.Start), uint64(e.End), f(e.PauseNS), f(e.CPUNS),
			f(e.Reclaimed), f(e.Copied), f(e.UsedAfter), f(e.LiveAfter))
	}
	b = appendWords(b, uint64(len(log.Pauses)))
	for _, p := range log.Pauses {
		b = appendWords(b, uint64(p.Start), uint64(p.End))
	}
	if res.Events == nil {
		return appendWords(b, 0), nil
	}
	b = appendWords(b, 1, uint64(len(res.Events)))
	for _, e := range res.Events {
		b = appendWords(b, uint64(e.Start), uint64(e.End))
	}
	return b, nil
}

// appendWords appends each word to b, little-endian.
func appendWords(b []byte, ws ...uint64) []byte {
	for _, w := range ws {
		b = le.AppendUint64(b, w)
	}
	return b
}

// DecodeInvocation parses a record EncodeInvocation framed. Any input that
// is not exactly such a record — short, oversized, malformed or of another
// format — yields an error wrapping ErrCorrupt. Counts are checked against
// the bytes left before anything is allocated from them.
func DecodeInvocation(b []byte) (*InvocationRecord, error) {
	d := decoder{b: b}
	if magic, ok := d.next(len(invMagic)); !ok || !bytes.Equal(magic, invMagic[:]) {
		return nil, fmt.Errorf("%w: not a format-3 invocation record", ErrCorrupt)
	}
	n, ok := d.uint64()
	if !ok || n > uint64(len(d.b)) {
		return nil, fmt.Errorf("%w: key length exceeds the %d bytes left", ErrCorrupt, len(d.b))
	}
	key, _ := d.next(int(n))
	r := &InvocationRecord{Key: string(key)}
	switch w, ok := d.uint64(); {
	case !ok || w > 1:
		return nil, fmt.Errorf("%w: torn or invalid result word", ErrCorrupt)
	case w == 0:
		r.OOM = true
	default:
		var err error
		if r.Result, err = d.result(); err != nil {
			return nil, err
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return r, nil
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

// word returns the i-th word of p, and float its float64 bits.
func word(p []byte, i int) int64    { return int64(le.Uint64(p[8*i:])) }
func float(p []byte, i int) float64 { return math.Float64frombits(le.Uint64(p[8*i:])) }

// result reads a Result: its scalars, iterations, GC log and latencies.
func (d *decoder) result() (*workload.Result, error) {
	p, ok := d.next(2 * 8)
	if !ok {
		return nil, fmt.Errorf("%w: torn result scalars", ErrCorrupt)
	}
	res := &workload.Result{GCCPUNS: float(p, 0), MutatorCPUNS: float(p, 1)}
	n, p, err := d.column(iterationBytes, "iteration")
	if err != nil {
		return nil, err
	}
	res.Iterations = make([]workload.IterationResult, n)
	for i := range res.Iterations {
		w := p[i*iterationBytes:]
		res.Iterations[i] = workload.IterationResult{WallNS: float(w, 0), CPUNS: float(w, 1),
			KernelNS: float(w, 2), Allocated: float(w, 3), StartNS: word(w, 4), EndNS: word(w, 5)}
	}
	if res.Log, err = d.log(); err != nil {
		return nil, err
	}
	res.Events, err = d.latencies()
	return res, err
}

func (d *decoder) log() (*trace.Log, error) {
	stall, ok := d.next(8)
	if !ok {
		return nil, fmt.Errorf("%w: torn log section", ErrCorrupt)
	}
	log := &trace.Log{StallNS: float(stall, 0)}
	n, p, err := d.column(eventBytes, "event")
	if err != nil {
		return nil, err
	}
	log.Events = make([]trace.GCEvent, n)
	for i := range log.Events {
		w := p[i*eventBytes:]
		kind := word(w, 0)
		if int64(int(kind)) != kind {
			return nil, fmt.Errorf("%w: event %d kind %d out of range", ErrCorrupt, i, kind)
		}
		log.Events[i] = trace.GCEvent{Kind: trace.GCKind(kind), Start: word(w, 1), End: word(w, 2),
			PauseNS: float(w, 3), CPUNS: float(w, 4), Reclaimed: float(w, 5), Copied: float(w, 6),
			UsedAfter: float(w, 7), LiveAfter: float(w, 8)}
	}
	if n, p, err = d.column(pauseBytes, "pause"); err != nil {
		return nil, err
	}
	log.Pauses = make([]trace.Pause, n)
	for i := range log.Pauses {
		log.Pauses[i] = trace.Pause{Start: word(p, 2*i), End: word(p, 2*i+1)}
	}
	return log, nil
}

// latencies reads the Result.Events column: a presence word, then, when it
// is 1, the count and the entries.
func (d *decoder) latencies() ([]workload.Event, error) {
	switch present, ok := d.uint64(); {
	case !ok || present > 1:
		return nil, fmt.Errorf("%w: torn or invalid latency presence word", ErrCorrupt)
	case present == 0:
		return nil, nil
	}
	n, p, err := d.column(latencyBytes, "latency")
	if err != nil {
		return nil, err
	}
	events := make([]workload.Event, n)
	for i := range events {
		events[i] = workload.Event{Start: word(p, 2*i), End: word(p, 2*i+1)}
	}
	return events, nil
}
