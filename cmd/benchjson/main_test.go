package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const benchText = `goos: linux
BenchmarkEngineStep/threads=8-2   	 4152824	        77.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkFullSuite/workers=1-2    	       1	2650000000 ns/op	        12.5 jobs/s
BenchmarkFullSuite/workers=1-2    	       1	2610000000 ns/op
PASS
`

// TestParseBench: result lines are parsed per benchmark in input order,
// other lines skipped, and every line echoed unchanged.
func TestParseBench(t *testing.T) {
	var echo bytes.Buffer
	got, err := parseBench(strings.NewReader(benchText), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != benchText {
		t.Fatalf("echo changed the input:\n%s", echo.String())
	}
	zero := int64(0)
	want := map[string][]Measurement{
		"BenchmarkEngineStep/threads=8": {{NsPerOp: 77.10, Iterations: 4152824, BPerOp: &zero, AllocsPerOp: &zero}},
		"BenchmarkFullSuite/workers=1":  {{NsPerOp: 2650000000, Iterations: 1}, {NsPerOp: 2610000000, Iterations: 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}

// TestParseBenchRejectsOverflow: a count column beyond int64 is an error,
// never a silently clamped MaxInt64.
func TestParseBenchRejectsOverflow(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2 99999999999999999999 5 ns/op",
		"BenchmarkX-2 10 5 ns/op 99999999999999999999 B/op 0 allocs/op",
		"BenchmarkX-2 10 5 ns/op 0 B/op 99999999999999999999 allocs/op",
	} {
		_, err := parseBench(strings.NewReader(line), io.Discard)
		var pe *ParseError
		if !errors.As(err, &pe) || !errors.Is(err, strconv.ErrRange) {
			t.Errorf("%q: err = %v, want a ParseError wrapping ErrRange", line, err)
		}
	}
}

// formatBench writes samples back as go test -bench lines, with a -1
// GOMAXPROCS suffix as go test appends one.
func formatBench(samples map[string][]Measurement) string {
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		for _, m := range samples[n] {
			fmt.Fprintf(&b, "%s-1\t%d\t%s ns/op", n, m.Iterations, strconv.FormatFloat(m.NsPerOp, 'f', -1, 64))
			if m.BPerOp != nil {
				fmt.Fprintf(&b, "\t%d B/op", *m.BPerOp)
			}
			if m.AllocsPerOp != nil {
				fmt.Fprintf(&b, "\t%d allocs/op", *m.AllocsPerOp)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FuzzParseBench: parseBench never panics, and it either refuses the input
// with an error or returns samples that parse back identically once written
// out as benchmark lines.
func FuzzParseBench(f *testing.F) {
	f.Add([]byte(benchText))
	f.Fuzz(func(t *testing.T, b []byte) {
		samples, err := parseBench(bytes.NewReader(b), io.Discard)
		if err != nil {
			return
		}
		text := formatBench(samples)
		again, err := parseBench(strings.NewReader(text), io.Discard)
		if err != nil {
			t.Fatalf("re-formatted samples rejected: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(samples, again) {
			t.Fatalf("samples do not round-trip:\n%+v\n%+v\n%s", samples, again, text)
		}
	})
}
