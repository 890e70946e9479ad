package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceDecodeStream is DecodeStream as it was before the line codec:
// every value through one json.Decoder, then the same audit. DecodeStream
// must be indistinguishable from it on any input.
func referenceDecodeStream(r io.Reader, fn func(Event) error) (StreamInfo, error) {
	var a streamAudit
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return a.info, nil
			}
			a.info.Clean = false
			return a.info, fmt.Errorf("obs: event %d: %w", n, err)
		}
		if a.add(&e) && fn != nil {
			if err := fn(e); err != nil {
				a.info.Clean = false
				return a.info, err
			}
		}
	}
}

type decoded struct {
	events []Event
	info   StreamInfo
	err    error
}

func decodeWith(decode func(io.Reader, func(Event) error) (StreamInfo, error), r io.Reader) decoded {
	var d decoded
	d.info, d.err = decode(r, func(e Event) error {
		d.events = append(d.events, e)
		return nil
	})
	return d
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameAsReference decodes what open returns with DecodeStream and with the
// reference, and fails unless both give bit-identical events, the same
// StreamInfo and the same error text. (Offsets inside a *json.SyntaxError
// count from where encoding/json took over, so errors compare by text.)
func sameAsReference(t *testing.T, name string, open func() io.Reader) decoded {
	t.Helper()
	got := decodeWith(DecodeStream, open())
	want := decodeWith(referenceDecodeStream, open())
	// %#v prints floats exactly and tells -0 from 0.
	if got.info != want.info || errText(got.err) != errText(want.err) ||
		fmt.Sprintf("%#v", got.events) != fmt.Sprintf("%#v", want.events) {
		t.Fatalf("%s:\nDecodeStream: %d events, %+v, %v\nreference:    %d events, %+v, %v",
			name, len(got.events), got.info, got.err, len(want.events), want.info, want.err)
	}
	return got
}

// fleetExcerpt is a real fleet telemetry stream cut down to a few lines of
// every kind a fleet run writes.
func fleetExcerpt(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fleet-excerpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeStreamPrefixes decodes every byte prefix of a real stream — a
// tear at every possible point — and demands the reference's result.
func TestDecodeStreamPrefixes(t *testing.T) {
	data := fleetExcerpt(t)
	whole := sameAsReference(t, "whole excerpt", func() io.Reader { return bytes.NewReader(data) })
	if whole.err != nil || !whole.info.Clean || whole.info.Events != 16 {
		t.Fatalf("excerpt decoded %+v, %v; want 16 events ending in run_end", whole.info, whole.err)
	}
	for k := range data {
		sameAsReference(t, fmt.Sprintf("prefix %d", k), func() io.Reader { return bytes.NewReader(data[:k]) })
	}
}

// TestDecodeStreamFailingReader: a read error at any byte offset yields the
// reference's events and wrapped error, and iotest's slow readers decode
// identically.
func TestDecodeStreamFailingReader(t *testing.T) {
	data := fleetExcerpt(t)
	boom := errors.New("device gone")
	for k := range data {
		got := sameAsReference(t, fmt.Sprintf("failing after %d bytes", k), func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:k]), iotest.ErrReader(boom))
		})
		if !errors.Is(got.err, boom) || !strings.HasPrefix(got.err.Error(), "obs: event ") {
			t.Fatalf("failing after %d bytes: error %v, want obs: event N: %v", k, got.err, boom)
		}
	}
	sameAsReference(t, "one byte per read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) })
	sameAsReference(t, "data with EOF", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) })
	sameAsReference(t, "timeout after one byte", func() io.Reader {
		return iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(data)))
	})
	// TimeoutReader fails its second read, so which byte the failure lands
	// on depends on read sizes. encoding/json's first read asks for 512
	// bytes; below that both decoders see the whole prefix, then the
	// timeout.
	for k := 0; k < 512; k++ {
		got := sameAsReference(t, fmt.Sprintf("timeout after %d bytes", k), func() io.Reader {
			return iotest.TimeoutReader(bytes.NewReader(data[:k]))
		})
		if !errors.Is(got.err, iotest.ErrTimeout) && k > 0 {
			t.Fatalf("timeout after %d bytes: error %v", k, got.err)
		}
	}
}

// TestDecodeStreamFallbackNumbering: once a line leaves the canonical
// shape, encoding/json decodes the rest of the stream and event numbers
// carry on, so errors still name the right event.
func TestDecodeStreamFallbackNumbering(t *testing.T) {
	stream := `{"kind":"cache-hit","seq":1,"t_ns":1}
{"kind": "cache-miss", "seq": 2, "t_ns": 2}
{"kind":"cache-hit","seq":3,"t_ns":3}
{"kind":"cache-hit","seq":4,"t_ns":4,"cycle":1.5}
`
	got := sameAsReference(t, "fallback", func() io.Reader { return strings.NewReader(stream) })
	if len(got.events) != 3 || errText(got.err) != "obs: event 4: json: cannot unmarshal number 1.5 into Go struct field Event.cycle of type int64" {
		t.Fatalf("decoded %d events, error %v", len(got.events), got.err)
	}

	// A line longer than the read buffer falls back too.
	long := `{"kind":"job-finish","seq":1,"t_ns":1,"err":"` + strings.Repeat("x", 100<<10) + `"}` + "\n" +
		`{"kind":"run_end","seq":2,"t_ns":0,"value":1}` + "\n"
	got = sameAsReference(t, "overlong line", func() io.Reader { return strings.NewReader(long) })
	if got.err != nil || len(got.events) != 2 || len(got.events[0].Err.String()) != 100<<10 {
		t.Fatalf("overlong line: %d events, error %v", len(got.events), got.err)
	}
}

// FuzzDecodeStream: on any input DecodeStream gives the same events,
// StreamInfo and error as the encoding/json reference, and neither panics.
// The committed corpus (testdata/fuzz/FuzzDecodeStream) holds a real fleet
// stream excerpt, a newer schema's stream, a torn stream, escaped and
// non-ASCII strings, a pretty-printed object, two objects on one line, an
// exponent in an integer field, an out-of-range float, integer-valued
// floats of 15, 16 and 17 digits and -0, and a float with leading zeros.
func FuzzDecodeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sameAsReference(t, "input", func() io.Reader { return bytes.NewReader(b) })
	})
}
