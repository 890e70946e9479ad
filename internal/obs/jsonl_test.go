package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJSONLEventsMidStream: Events counts every event recorded so far,
// whether or not its batch was full, and the closed stream holds exactly
// those lines and the run_end.
func TestJSONLEventsMidStream(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var n int64
	for _, m := range []int{1, jsonlBatchLen - 2, 1, 1, 3*jsonlBatchLen + 7, 0} {
		for i := 0; i < m; i++ {
			n++
			j.Record(Event{Kind: KindCacheHit, TNS: n})
		}
		if got := j.Events(); got != n {
			t.Fatalf("Events() = %d after %d records", got, n)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var lines int64
	if err := DecodeJSONL(&buf, func(e Event) error {
		lines++
		if e.Seq != lines || e.Kind != KindRunEnd && e.TNS != lines {
			t.Fatalf("line %d decoded as %+v", lines, e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lines != n+1 || j.Events() != n+1 {
		t.Fatalf("stream has %d lines and Events() = %d, want %d events + run_end", lines, j.Events(), n)
	}
}

// lineWriter takes each Write as one line until its fail'th call, which
// and every later call fail.
type lineWriter struct {
	calls, fail int
	lines       int
}

var errDiskFull = errors.New("disk full")

func (w *lineWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.fail {
		return 0, errDiskFull
	}
	w.lines += bytes.Count(p, []byte("\n"))
	return len(p), nil
}

// TestJSONLWriteErrorInBatch: a writer that fails partway through the
// second batch gives Close the first error, and Events counts only the
// lines written before it. Each line outgrows the 64 KiB buffer, so every
// line is one Write and the failure lands on a known line.
func TestJSONLWriteErrorInBatch(t *testing.T) {
	const fail = jsonlBatchLen + 40
	w := &lineWriter{fail: fail}
	j := NewJSONL(w)
	big := Intern(strings.Repeat("x", 64<<10))
	for i := 0; i < 2*jsonlBatchLen; i++ {
		j.Record(Event{Kind: KindJobFinish, TNS: int64(i + 1), Err: big})
	}
	if got := j.Events(); got != fail-1 {
		t.Fatalf("Events() = %d after the write failure, want the %d lines written", got, fail-1)
	}
	err := j.Close()
	if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "obs: writing event: ") {
		t.Fatalf("Close() = %v, want obs: writing event: %v", err, errDiskFull)
	}
	if j.Events() != fail-1 || w.lines != fail-1 {
		t.Fatalf("after Close: Events() = %d, writer took %d lines, want %d", j.Events(), w.lines, fail-1)
	}
}

// TestJSONLAfterClose: after Close, Record and RecordBatch write nothing,
// Events returns the final count, run_end included, and a second Close
// returns the first one's error without writing a second run_end.
func TestJSONLAfterClose(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(Event{Kind: KindCacheHit, TNS: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	closed := buf.String()
	j.Record(Event{Kind: KindCacheMiss, TNS: 2})
	j.RecordBatch([]Event{{Kind: KindOOM}, {Kind: KindOOM}})
	if err := j.Close(); err != nil {
		t.Fatalf("second Close() = %v, want the first Close's nil", err)
	}
	if buf.String() != closed {
		t.Fatalf("the stream changed after Close:\n%s\nwant:\n%s", buf.String(), closed)
	}
	if j.Events() != 2 {
		t.Fatalf("Events() = %d after Close, want 1 event + run_end", j.Events())
	}

	w := &lineWriter{fail: 1}
	j = NewJSONL(w)
	j.Record(Event{Kind: KindCacheHit, TNS: 1})
	first := j.Close()
	if !errors.Is(first, errDiskFull) {
		t.Fatalf("Close() = %v, want %v", first, errDiskFull)
	}
	if again := j.Close(); again != first {
		t.Fatalf("second Close() = %v, want the first Close's %v", again, first)
	}
	if w.calls != 1 {
		t.Fatalf("the writer saw %d calls, want only the first Close's flush", w.calls)
	}
}

// TestJSONLNoGoroutineOutlivesClose: every sink's writer goroutine has
// exited once Close returns, on the clean and the failing path alike.
func TestJSONLNoGoroutineOutlivesClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		var w io.Writer = &bytes.Buffer{}
		if i%2 == 1 {
			w = &lineWriter{fail: 1}
		}
		j := NewJSONL(w)
		for k := 0; k < i*jsonlBatchLen/3; k++ {
			j.Record(Event{Kind: KindCacheHit, TNS: int64(k)})
		}
		j.Events()
		j.Close()
	}
	// The writer returns right after signalling Close, so allow it a moment
	// to leave the scheduler's count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the sinks", n, base)
	}
}

// TestJSONLRecordAndBatchConcurrent interleaves Record, RecordBatch and
// Events from many goroutines; under -race (make tier1) this is the proof
// that the batch hand-over is synchronized. The stream must decode in
// sequence, keep each goroutine's order, and keep each RecordBatch's events
// contiguous.
func TestJSONLRecordAndBatchConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	const workers, rounds = 8, 150
	var total int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := Intern(fmt.Sprintf("w%d", w))
			var tns int64
			for r := 0; r < rounds; r++ {
				if r%2 == 0 {
					tns++
					j.Record(Event{Kind: KindJobFinish, TNS: tns, Run: run})
					continue
				}
				evs := make([]Event, 1+(r*7+w)%61)
				for i := range evs {
					tns++
					evs[i] = Event{Kind: KindJobStart, TNS: tns, Run: run, Cycle: int64(r), Value: float64(i)}
				}
				j.RecordBatch(evs)
				if r%25 == 1 {
					j.Events()
				}
			}
			mu.Lock()
			total += tns
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var seq int64
	last := map[Name]int64{}
	var batchRun Name
	var batchCycle int64
	var batchNext float64
	if err := DecodeJSONL(&buf, func(e Event) error {
		seq++
		if e.Seq != seq {
			t.Fatalf("sequence broke: %d after %d", e.Seq, seq-1)
		}
		if e.Kind == KindRunEnd {
			return nil
		}
		if e.TNS != last[e.Run]+1 {
			t.Fatalf("%s: event %d follows %d", e.Run, e.TNS, last[e.Run])
		}
		last[e.Run] = e.TNS
		// A batch's events run Value 0, 1, 2, … with nothing between them.
		inBatch := batchNext > 0 && e.Kind == KindJobStart && e.Run == batchRun && e.Cycle == batchCycle
		switch {
		case inBatch && e.Value == batchNext:
			batchNext++
		case e.Kind == KindJobStart && e.Value == 0:
			batchRun, batchCycle, batchNext = e.Run, e.Cycle, 1
		case e.Kind == KindJobStart:
			t.Fatalf("%s: batch %d split before event %v", e.Run, e.Cycle, e.Value)
		default:
			batchNext = 0
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seq != total+1 {
		t.Fatalf("decoded %d events, want %d + run_end", seq, total)
	}
}
