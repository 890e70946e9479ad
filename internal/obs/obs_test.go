package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

func TestNopCostsNothing(t *testing.T) {
	r := Nop
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			r.Record(Event{Kind: KindGCPhaseEnd, TNS: 1, DurNS: 2})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled recording allocated %v per op", allocs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	want := []Event{
		{Kind: KindGCPhaseStart, TNS: 100, Run: Intern("k1"), Phase: Intern("young")},
		{Kind: KindGCPhaseEnd, TNS: 250, Run: Intern("k1"), Phase: Intern("young"), DurNS: 150, CPUNS: 900, Value: 1 << 20},
		{Kind: KindPacerStall, TNS: 300, Run: Intern("k1"), DurNS: 5e5},
		{Kind: KindJobFinish, TNS: 400, Run: Intern("k1"), Benchmark: Intern("lusearch"), Collector: Intern("Shenandoah"), DurNS: 1e9, CPUNS: 4e9},
	}
	for _, e := range want {
		j.Record(e)
	}
	if j.Events() != int64(len(want)) {
		t.Fatalf("Events() = %d, want %d", j.Events(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := DecodeJSONL(&buf, func(e Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The sink stamps sequence numbers and terminates the stream with a
	// run_end event on Close.
	if len(got) != len(want)+1 {
		t.Fatalf("decoded %d events, want %d + run_end", len(got), len(want))
	}
	for i := range want {
		want[i].Seq = int64(i + 1)
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	end := got[len(got)-1]
	if end.Kind != KindRunEnd || end.Value != float64(len(want)) || end.Seq != int64(len(want)+1) {
		t.Errorf("terminal event = %+v, want run_end over %d events", end, len(want))
	}
}

func TestDecodeJSONLTruncated(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(Event{Kind: KindCacheHit, TNS: 1})
	j.Record(Event{Kind: KindCacheMiss, TNS: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	torn := buf.String()
	torn = torn[:len(torn)-10] // cut mid-line, as a killed run would
	var n int
	err := DecodeJSONL(strings.NewReader(torn), func(Event) error { n++; return nil })
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	// The tear lands inside the run_end line, so both real events survive.
	if n != 2 {
		t.Fatalf("decoded %d whole events before the tear, want 2", n)
	}
}

// TestDecodeStreamIntegrity is the truncation-detection contract: a closed
// stream audits clean, a stream cut on a line boundary (no decode error, but
// no run_end either) is flagged truncated, and dropped lines surface as
// sequence gaps rather than silently skewing downstream analysis.
func TestDecodeStreamIntegrity(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(Event{Kind: KindCacheHit, TNS: 1})
	j.Record(Event{Kind: KindCacheMiss, TNS: 2})
	j.Record(Event{Kind: KindGCPause, TNS: 3, DurNS: 10})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := DecodeStream(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Clean || info.Gaps != 0 || info.OutOfOrder != 0 || info.Events != 4 {
		t.Fatalf("clean stream audited %+v", info)
	}
	if info.Err() != nil {
		t.Fatalf("clean stream reported %v", info.Err())
	}

	lines := strings.SplitAfter(buf.String(), "\n")
	// Cut the stream on a line boundary before run_end: decoding succeeds,
	// so only the missing run_end distinguishes this from a short run.
	cut := strings.Join(lines[:2], "")
	info, err = DecodeStream(strings.NewReader(cut), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Clean {
		t.Fatal("truncated stream audited clean")
	}
	if info.Err() == nil {
		t.Fatal("truncated stream reported no error")
	}

	// Drop a middle line: the sequence gap must surface.
	dropped := lines[0] + lines[2] + lines[3]
	info, err = DecodeStream(strings.NewReader(dropped), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gaps != 1 || !info.Clean {
		t.Fatalf("dropped line audited %+v, want 1 gap on a clean-ended stream", info)
	}

	// Swap two lines: reordering must surface.
	swapped := lines[1] + lines[0] + lines[2] + lines[3]
	info, err = DecodeStream(strings.NewReader(swapped), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.OutOfOrder == 0 {
		t.Fatalf("reordered stream audited %+v, want out-of-order events", info)
	}

	// Unsequenced hand-built events audit as such, not as gaps.
	info, err = DecodeStream(strings.NewReader(`{"kind":"oom","t_ns":1}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Unsequenced != 1 || info.Gaps != 0 {
		t.Fatalf("unsequenced stream audited %+v", info)
	}
}

// TestJSONLConcurrent hammers one sink from many goroutines; under -race
// (make tier1) this is the serialization proof, and line-atomicity is
// checked by decoding everything back.
func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	const workers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Record(Event{Kind: KindJobFinish, TNS: int64(i), Run: Intern(fmt.Sprintf("r%d", w))})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	var lastSeq int64
	if err := DecodeJSONL(&buf, func(e Event) error {
		if e.Kind != KindJobFinish && e.Kind != KindRunEnd {
			t.Errorf("interleaved write corrupted an event: %+v", e)
		}
		if e.Seq != lastSeq+1 {
			t.Errorf("sequence broke: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != workers*per+1 {
		t.Fatalf("decoded %d events, want %d + run_end", n, workers*per)
	}
}

func TestWithRunStamps(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	r := WithRun(j, "key123", "h2", "G1")
	r.Record(Event{Kind: KindGCPhaseEnd, Phase: Intern("young")})
	r.Record(Event{Kind: KindGCPhaseEnd, Run: Intern("other"), Benchmark: Intern("kafka"), Collector: Intern("ZGC")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := DecodeJSONL(&buf, func(e Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if got[0].Run != Intern("key123") || got[0].Benchmark != Intern("h2") || got[0].Collector != Intern("G1") {
		t.Errorf("stamp missing: %+v", got[0])
	}
	if got[1].Run != Intern("other") || got[1].Benchmark != Intern("kafka") || got[1].Collector != Intern("ZGC") {
		t.Errorf("stamp overwrote explicit identity: %+v", got[1])
	}
	if r := WithRun(Nop, "k", "b", "c"); r.Enabled() {
		t.Error("stamping Nop produced an enabled recorder")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 1}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d, want 6", h.Total())
	}
	if h.Sum() != 5+10+11+100+500+5000 {
		t.Fatalf("sum = %v", h.Sum())
	}
	h.Observe(math.NaN())
	if math.IsNaN(h.Sum()) {
		t.Fatal("NaN observation poisoned the sum")
	}
	if h.Total() != 6 {
		t.Fatalf("NaN observation counted: total = %d", h.Total())
	}
	if !strings.Contains(h.String(), "#") {
		t.Fatalf("String() rendered no bars:\n%s", h.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(StallBoundsNS)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(1000 * (i + 1) * (j + 1)))
			}
		}(i)
	}
	wg.Wait()
	if h.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", h.Total())
	}
}

// TestEventLayout pins what makes slices of events cheap: no field of Event
// can hold a pointer, so the allocator need not zero a grown slice before
// copying into it and the garbage collector never scans one, and the
// struct is at most 232 bytes.
func TestEventLayout(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("Event.%s is a %v, which can hold a pointer", f.Name, f.Type)
		}
	}
	if n := unsafe.Sizeof(Event{}); n > 232 {
		t.Errorf("sizeof(Event) = %d bytes, want at most 232", n)
	}
}

// holdsPointer reports whether a value of type t can hold a pointer.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestInternConcurrent interns and reads names from many goroutines at
// once; under the race detector it checks that String takes no lock yet
// sees every name interned before the handle reached it.
func TestInternConcurrent(t *testing.T) {
	const workers, per = 8, 500
	var wg sync.WaitGroup
	handles := make(chan Name, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := fmt.Sprintf("concurrent-%d", (w*per+i)%(per*3/2))
				n := Intern(s)
				if got := n.String(); got != s {
					t.Errorf("Intern(%q).String() = %q", s, got)
					return
				}
				handles <- n
				select {
				case h := <-handles:
					_ = h.String()
				default:
				}
			}
		}(w)
	}
	wg.Wait()
	if Intern("") != 0 || Name(0).String() != "" {
		t.Error(`Intern("") is not the zero Name`)
	}
	if a, b := Intern("concurrent-1"), Intern(string([]byte("concurrent-1"))); a != b {
		t.Errorf("one string interned as %d and %d", a, b)
	}
}
