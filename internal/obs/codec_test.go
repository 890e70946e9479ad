package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// TestEventFieldCount guards the line codec against schema drift: a field
// added to Event must also be added to lineEncoder.event and
// lineParser.field, or it silently never reaches the stream.
func TestEventFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Event{}).NumField(); n != 34 {
		t.Fatalf("Event has %d fields, the JSONL line codec handles 34: update codec.go and this count", n)
	}
}

// wantLine is the reference encoding: what json.Encoder.Encode writes.
func wantLine(t *testing.T, e Event) []byte {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", e, err)
	}
	return append(b, '\n')
}

func checkLine(t *testing.T, e Event) {
	t.Helper()
	got, ok := appendEvent(nil, &e)
	if want := wantLine(t, e); !ok || !bytes.Equal(got, want) {
		t.Fatalf("appendEvent(%+v) = %q, %v\nencoding/json writes %q", e, got, ok, want)
	}
}

// TestAppendEventMatchesEncodingJSON: every kind and the number and string
// edge cases encoding/json formats specially encode to the same bytes.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		checkLine(t, Event{Kind: k, Seq: int64(k) + 1, TNS: 1e9, Run: "r", DurNS: 1.5, Replica: 2})
	}
	checkLine(t, Event{Kind: KindUnknown})
	checkLine(t, Event{Kind: 40})
	floats := []float64{
		math.Copysign(0, -1), 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, 999999999999999999999,
		-1e21, -2.5, -1e-7, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 123456789.125,
		1e-10, 1.5e-300, 0.1, 100,
	}
	for _, f := range floats {
		checkLine(t, Event{Kind: KindSample, DurNS: f, HeapUsed: f, BurnRate: f})
	}
	for _, v := range []int64{-1, math.MinInt64, math.MaxInt64, 1e18} {
		checkLine(t, Event{Seq: v, TNS: v, Cycle: v, QueueNS: v, InFlight: v, Replica: int(v)})
	}
	for _, s := range []string{
		"<>&", `a"b`, `back\slash`, "line\nbreak", "\x01", "\x7f", "tab\t", "é",
		"  ", "\xff\xfe", "ok-plain ascii", "日本",
	} {
		checkLine(t, Event{Kind: KindJobFinish, Run: s, Benchmark: s, Collector: s, Phase: s, Err: s})
	}
}

// TestAppendEventRandom fills every field of Event, through reflection so a
// new field is covered automatically, with seeded random values — about
// half zero, to exercise omitempty — and checks each encodes as
// encoding/json encodes it.
func TestAppendEventRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "abcXYZ09 -_.:/<>&\"\\\x01\x7fé \xff"
	for i := 0; i < 20000; i++ {
		var e Event
		v := reflect.ValueOf(&e).Elem()
		for f := 0; f < v.NumField(); f++ {
			if rng.Intn(2) == 0 {
				continue
			}
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Uint8:
				fv.SetUint(uint64(rng.Intn(len(kindNames) + 2)))
			case reflect.Int, reflect.Int64:
				fv.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
			case reflect.Float64:
				fv.SetFloat(randFloat(rng))
			case reflect.String:
				s := make([]byte, rng.Intn(8))
				for j := range s {
					s[j] = alphabet[rng.Intn(len(alphabet))]
				}
				fv.SetString(string(s))
			default:
				t.Fatalf("field %s: no generator for %v", v.Type().Field(f).Name, fv.Kind())
			}
		}
		checkLine(t, e)
	}
}

// randFloat draws finite floats across the ranges encoding/json formats
// differently: raw bit patterns, small and huge magnitudes, integers.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 2:
		return float64(rng.Int63n(1e15)) - 5e14
	default:
		return rng.Float64()
	}
}

// TestJSONLNonFinite: NaN and ±Inf fail the stream with the error
// encoding/json gives for them; that event and every later one are dropped.
func TestJSONLNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Record(Event{Kind: KindCacheHit, TNS: 1})
		e := Event{Kind: KindSample, TNS: 2, GCFrac: bad}
		j.Record(e)
		j.Record(Event{Kind: KindCacheMiss, TNS: 3})
		err := j.Close()

		e.Seq = 2
		want := json.NewEncoder(io.Discard).Encode(e)
		if err == nil || err.Error() != "obs: writing event: "+want.Error() {
			t.Fatalf("%v: Close() = %v, want obs: writing event: %v", bad, err, want)
		}
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) {
			t.Fatalf("%v: Close() error %T does not wrap *json.UnsupportedValueError", bad, err)
		}
		if got := buf.String(); got != `{"kind":"cache-hit","seq":1,"t_ns":1}`+"\n" {
			t.Fatalf("%v: stream holds %q, want only the event before the failure", bad, got)
		}
		if j.Events() != 1 {
			t.Fatalf("%v: Events() = %d, want 1", bad, j.Events())
		}
	}
}

// TestLineParserCanonicalOnly: the parser accepts what the encoder writes
// and refuses every shape it does not write, leaving those to encoding/json.
func TestLineParserCanonicalOnly(t *testing.T) {
	for _, line := range []string{
		`{"kind":"gc-pause","seq":1,"t_ns":100,"dur_ns":1.5e-7,"replica":3}`,
		`{"kind":"fleet-hologram","t_ns":0}`,
		`{}`,
	} {
		var p lineParser
		var e Event
		if !p.parse([]byte(line+"\n"), &e) {
			t.Errorf("canonical line refused: %s", line)
		}
	}
	for _, line := range []string{
		`{"kind":"oom","t_ns":1,"warp_ns":5}`, // unknown field
		`{"kind": "oom"}`,                     // whitespace
		` {"kind":"oom"}`,
		`{"kind":"o\u006fm"}`, // escape
		`{"run":"é"}`,         // non-ASCII
		`{"KIND":"oom"}`,      // encoding/json matches keys case-insensitively
		`{"seq":1e3}`,         // exponent in an integer field
		`{"seq":1.0}`,
		`{"seq":-}`,
		`{"seq":01}`,
		`{"dur_ns":1e400}`, // out of range
		`{"dur_ns":.5}`,
		`{"dur_ns":1.}`,
		`{"dur_ns":+1}`,
		`{"dur_ns":NaN}`,
		`{"dur_ns":"1"}`,
		`{"run":null}`,
		`{"run":1}`,
		`{"kind":"oom",}`,
		`{"kind":"oom"}{"kind":"oom"}`,
		`{"kind":"oom"`,
		`{"kind"}`,
		`{"kind":}`,
		`[]`,
		``,
	} {
		var p lineParser
		var e Event
		if p.parse([]byte(line+"\n"), &e) {
			t.Errorf("non-canonical line accepted: %s", line)
		}
	}
}

// TestAppendFloatIntegers checks the encoder's integer fast path against
// encoding/json at and around its 2^53 bound, at both signs, and next to
// the values that stay on the strconv path.
func TestAppendFloatIntegers(t *testing.T) {
	const p53 = 1 << 53
	for _, f := range []float64{
		1, 2, 10, 100, 1e6, 123456789, 1e15, 1e16, 1e17,
		p53 - 1, p53, p53 + 2, p53 + 4, p53 * 2, 1 << 62, 1 << 63, 1e20,
		0.5, 1.5, 0.999999, 1 - 1e-16, p53 - 1.5, 1e21,
	} {
		for _, v := range []float64{f, -f} {
			checkLine(t, Event{Kind: KindSample, DurNS: v, Value: v, HeapUsed: v})
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		v := float64(rng.Int63() >> rng.Intn(63))
		if rng.Intn(2) == 0 {
			v = -v
		}
		checkLine(t, Event{Kind: KindSample, DurNS: v})
	}
}

// TestParseFloatIntegers checks the decoder's integer fast path against
// strconv.ParseFloat bit for bit: -0, integers of 15 digits (the fast
// path's bound) and of 16 and 17 (strconv's), and numbers with leading
// zeros, of which JSON's grammar takes only the first zero (the line parser
// then refuses what follows it).
func TestParseFloatIntegers(t *testing.T) {
	leading := map[string]string{"00": "0", "007": "0", "-00": "-0", "-012": "-0"}
	nums := []string{
		"0", "-0", "1", "-1", "7", "10", "999999999999999", "-999999999999999",
		"100000000000000", "123456789012345", "1000000000000000",
		"9007199254740991", "9007199254740993", "-9999999999999999",
		"12345678901234567", "99999999999999999", "-10000000000000001",
		"0.5", "-0.0", "1e3", "15e-1", "00", "007", "-00", "-012",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		s := strconv.FormatInt(rng.Int63()>>rng.Intn(63), 10)
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		nums = append(nums, s)
	}
	for _, s := range nums {
		used, ok := leading[s]
		if !ok {
			used = s
		}
		var got float64
		rest, ok := parseFloat([]byte(s), &got)
		want, err := strconv.ParseFloat(used, 64)
		if !ok || err != nil || string(rest) != s[len(used):] || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, %v leaving %q; strconv.ParseFloat(%q) = %v, %v",
				s, got, ok, rest, used, want, err)
		}
	}
}
