package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"chopin/internal/obs/benchdiff"
)

const benchText = `goos: linux
BenchmarkEngineStep/threads=8-2   	 4152824	        77.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkFullSuite/workers=1-2    	       1	2650000000 ns/op	        12.5 jobs/s
BenchmarkFullSuite/workers=1-2    	       1	2610000000 ns/op
PASS
`

// capture runs the write mode on input and returns what it echoed and the
// JSON it wrote.
func capture(t *testing.T, input string) (echo, written string, err error) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout bytes.Buffer
	if err := record(strings.NewReader(input), &stdout, io.Discard, out, ""); err != nil {
		return stdout.String(), "", err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), string(data), nil
}

// TestParseBench: the write mode echoes its input unchanged and records the
// per-metric median of every benchmark it read.
func TestParseBench(t *testing.T) {
	echo, got, err := capture(t, benchText)
	if err != nil {
		t.Fatal(err)
	}
	if echo != benchText {
		t.Fatalf("echo changed the input:\n%s", echo)
	}
	want := `{
  "BenchmarkEngineStep/threads=8": {"ns_per_op":77.1,"b_per_op":0,"allocs_per_op":0,"iterations":4152824},
  "BenchmarkFullSuite/workers=1": {"ns_per_op":2630000000,"iterations":1}
}
`
	if got != want {
		t.Fatalf("wrote\n%s\nwant\n%s", got, want)
	}
}

// TestParseBenchRejectsOverflow: a count column beyond int64 is a
// *benchdiff.ParseError, never a silently clamped MaxInt64.
func TestParseBenchRejectsOverflow(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2 99999999999999999999 5 ns/op",
		"BenchmarkX-2 10 5 ns/op 99999999999999999999 B/op 0 allocs/op",
		"BenchmarkX-2 10 5 ns/op 0 B/op 99999999999999999999 allocs/op",
	} {
		_, _, err := capture(t, line)
		var pe *benchdiff.ParseError
		if !errors.As(err, &pe) || pe.Line != 1 || !errors.Is(err, strconv.ErrRange) {
			t.Errorf("%q: err = %v, want a line-1 ParseError wrapping ErrRange", line, err)
		}
	}
}

// FuzzParseBench: the write mode never panics, and it either refuses the input
// or echoes what it read unchanged — all of it, for bench text — and writes
// a map that reads back as exactly one median per benchmark it parsed.
func FuzzParseBench(f *testing.F) {
	f.Add([]byte(benchText))
	f.Fuzz(func(t *testing.T, b []byte) {
		echo, written, err := capture(t, string(b))
		if !bytes.HasPrefix(b, []byte(echo)) {
			t.Fatalf("echo %q is not a prefix of the input", echo)
		}
		if err != nil {
			return
		}
		if trim := bytes.TrimLeft(b, " \t\r\n"); trim[0] != '{' && echo != string(b) {
			t.Fatalf("echoed %q of bench text %q", echo, b)
		}
		samples, err := benchdiff.Parse(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("accepted by the write mode, refused on a second read: %v", err)
		}
		back, err := benchdiff.Parse(strings.NewReader(written))
		if err != nil {
			t.Fatalf("written map rejected: %v\n%s", err, written)
		}
		want := benchdiff.Samples{}
		for n, s := range samples {
			want[n] = benchdiff.Series{s.Median()}
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("written map reads back as\n%+v\nwant the medians\n%+v", back, want)
		}
	})
}

// TestGoldens: for every committed fixture the write mode writes exactly the
// bytes recorded in testdata/*.golden.json, which were produced by the
// regexp parser the write mode had before reading moved into
// internal/obs/benchdiff.
func TestGoldens(t *testing.T) {
	inputs := map[string]string{"benchtext": benchText}
	fixtures, _ := filepath.Glob(filepath.Join("..", "..", "internal", "obs", "benchdiff", "testdata", "*.bench.txt"))
	local, _ := filepath.Glob(filepath.Join("testdata", "*.bench.txt"))
	for _, path := range append(fixtures, local...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[strings.TrimSuffix(filepath.Base(path), ".bench.txt")] = string(data)
	}
	if len(inputs) < 8 {
		t.Fatalf("found %d fixtures, want at least 8", len(inputs))
	}
	for name, input := range inputs {
		echo, got, err := capture(t, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		if echo != input || got != string(want) {
			t.Errorf("%s: wrote\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestCommittedBaselineRoundTrips: the committed BENCH_sim.json, read and
// written back, comes out byte-identical — the writer is the format the
// gate reads.
func TestCommittedBaselineRoundTrips(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := capture(t, string(want)); err != nil || got != string(want) {
		t.Fatalf("round trip = %v\n%s", err, got)
	}
}

// TestUnderflowingPairRefused: a workers=8 ns/op so small that the speedup
// overflows is refused with an error naming the pair, before anything is
// written.
func TestUnderflowingPairRefused(t *testing.T) {
	in := "BenchmarkFullSuite/workers=1-2 1 1000 ns/op\nBenchmarkFullSuite/workers=8-2 1 0." +
		strings.Repeat("0", 319) + "1 ns/op\n"
	_, _, err := capture(t, in)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFullSuite/parallel-efficiency") {
		t.Fatalf("err = %v, want an error naming the workers pair", err)
	}
}

// efficiencies builds samples holding one derived efficiency entry per
// value, named after its position.
func efficiencies(vs ...float64) benchdiff.Samples {
	s := benchdiff.Samples{"BenchmarkOther": {{NsPerOp: 0.1}}}
	for i, v := range vs {
		s[fmt.Sprintf("BenchmarkS%d%s", i, benchdiff.EffSuffix)] = benchdiff.Series{{NsPerOp: v}}
	}
	return s
}

func TestGateScaling(t *testing.T) {
	auto := math.Max(0.9, 0.5*math.Min(8, float64(runtime.NumCPU())))
	for _, tc := range []struct {
		name, min string
		s         benchdiff.Samples
		err       string // "" passes
	}{
		{"auto passes at the floor", "auto", efficiencies(auto), ""},
		{"auto fails below the floor", "auto", efficiencies(auto+1, auto-0.01), "parallel efficiency below"},
		{"numeric passes", "1.5", efficiencies(1.5, 2), ""},
		{"numeric fails", "1.5", efficiencies(1.49), "below 1.50x: BenchmarkS0/parallel-efficiency"},
		{"bad value", "fast", efficiencies(2), `bad -scaling-min "fast"`},
		{"zero", "0", efficiencies(2), `bad -scaling-min "0"`},
		{"NaN", "NaN", efficiencies(2), `bad -scaling-min "NaN"`},
		{"no pair", "auto", efficiencies(), "no workers=1/workers=8 pair"},
	} {
		var report bytes.Buffer
		err := gateScaling(&report, tc.s, tc.min)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: err = %v, want pass", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		case tc.min == "auto" && len(tc.s) > 1 && !strings.Contains(report.String(), fmt.Sprintf("(floor %.2fx)", auto)):
			t.Errorf("%s: report %q does not give the floor %.2fx", tc.name, report.String(), auto)
		}
	}
	// The report names every entry with its floor and verdict.
	var report bytes.Buffer
	gateScaling(&report, efficiencies(3, 1), "2")
	want := "benchdiff: BenchmarkS0/parallel-efficiency = 3.00x (floor 2.00x) ok\n" +
		"benchdiff: BenchmarkS1/parallel-efficiency = 1.00x (floor 2.00x) FAIL\n"
	if report.String() != want {
		t.Fatalf("report:\n%s\nwant\n%s", report.String(), want)
	}
}
