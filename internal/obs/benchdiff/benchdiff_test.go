package benchdiff

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// one builds a single-sample Series for threshold-fallback tests.
func one(ns float64) Series { return Series{{NsPerOp: ns}} }

func TestParseJSON(t *testing.T) {
	s, err := Parse(strings.NewReader(`{
  "BenchmarkEngineStep/threads=8": {"ns_per_op":77.03,"b_per_op":0,"allocs_per_op":0,"iterations":4152824},
  "BenchmarkEngineTimerHeavy": {"ns_per_op":236.2,"iterations":1502066}
}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("parsed %d names, want 2", len(s))
	}
	step := s["BenchmarkEngineStep/threads=8"]
	if got := step.Samples(NsPerOp); len(got) != 1 || got[0] != 77.03 {
		t.Fatalf("JSON ns sample = %v", got)
	}
	// b_per_op:0 is a real zero-allocation measurement, not absence...
	if got := step.Samples(AllocsPerOp); len(got) != 1 || got[0] != 0 {
		t.Fatalf("JSON allocs sample = %v", got)
	}
	// ...while a map entry without the -benchmem keys has no series at all.
	if got := s["BenchmarkEngineTimerHeavy"].Samples(BytesPerOp); len(got) != 0 {
		t.Fatalf("absent b_per_op parsed as samples: %v", got)
	}
}

func TestParseBenchText(t *testing.T) {
	s, err := ParseFile(filepath.Join("testdata", "old.bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 4 {
		t.Fatalf("parsed %d names, want 4: %v", len(s), s)
	}
	// -count=5 accumulates five samples and the GOMAXPROCS suffix strips.
	got := s["BenchmarkEngineStep/threads=8"].Samples(NsPerOp)
	if len(got) != 5 {
		t.Fatalf("samples = %v, want 5 accumulated -count runs", got)
	}
	if got[0] != 77.10 {
		t.Fatalf("first sample = %v, want 77.10", got[0])
	}
	if allocs := s["BenchmarkEngineStep/threads=8"].Samples(AllocsPerOp); len(allocs) != 5 || allocs[0] != 0 {
		t.Fatalf("allocs samples = %v, want five zeros", allocs)
	}
}

// TestParseBenchLineCustomMetrics: b.ReportMetric interleaves custom units
// between ns/op and the -benchmem columns; the pairwise scan must step over
// them and still find B/op and allocs/op.
func TestParseBenchLineCustomMetrics(t *testing.T) {
	line := "BenchmarkFigure1GeomeanLBO-8   1   5771234567 ns/op   12.34 lbo-pct   56.7 sweeps/op   1048576 B/op   30912345 allocs/op"
	name, rec, err := parseBenchLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if name != "BenchmarkFigure1GeomeanLBO" {
		t.Fatalf("name = %q", name)
	}
	b, allocs := int64(1048576), int64(30912345)
	if want := (Record{NsPerOp: 5771234567, BPerOp: &b, AllocsPerOp: &allocs, Iterations: 1}); !reflect.DeepEqual(rec, want) {
		t.Fatalf("record = %+v, want %+v", rec, want)
	}
	// Without -benchmem the line ends after the custom metrics.
	_, rec, err = parseBenchLine("BenchmarkX-8   100   50.0 ns/op   3.0 widgets/op")
	if err != nil || rec.BPerOp != nil || rec.AllocsPerOp != nil {
		t.Fatalf("no-benchmem line: %+v, %v", rec, err)
	}
}

// TestParseRefuses: a result line a Record cannot hold exactly is a
// *ParseError naming its line, never skipped and never approximated; lines
// that are not results are skipped.
func TestParseRefuses(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"BenchmarkC-2 10 NaN ns/op", "ns/op NaN is not a finite number ≥ 0"},
		{"BenchmarkC-2 10 +Inf ns/op", "ns/op +Inf is not a finite number ≥ 0"},
		{"BenchmarkC-2 10 1e400 ns/op", "ns/op: strconv.ParseFloat"},
		{"BenchmarkC-2 10 -5 ns/op", "ns/op -5 is not a finite number ≥ 0"},
		{"BenchmarkC-2 10 fast ns/op", "ns/op: strconv.ParseFloat"},
		{"BenchmarkF-2 10 5 ns/op 12.5 B/op 1 allocs/op", "B/op: strconv.ParseInt"},
		{"BenchmarkF-2 10 5 ns/op 1 B/op 2.5 allocs/op", "allocs/op: strconv.ParseInt"},
		{"BenchmarkF-2 10 5 ns/op -1 B/op", "negative count"},
		{"BenchmarkF-2 1.5 5 ns/op", "iterations: strconv.ParseInt"},
		{"BenchmarkF-2 -1 5 ns/op", "negative count"},
		{"BenchmarkF-2 5 ns/op", "want a name, an iteration count and value-unit pairs"},
		{"BenchmarkF-2 10 5 ns/op 6 ns/op", "ns/op given twice"},
	} {
		_, err := Parse(strings.NewReader("goos: linux\nBenchmarkOK-2 10 5 ns/op\n" + tc.text + "\nPASS\n"))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 3 || pe.Text != tc.text || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want a line-3 ParseError containing %q", tc.text, err, tc.want)
		}
	}
	s, err := Parse(strings.NewReader("BenchmarkX\n--- FAIL: BenchmarkX-2\n    BenchmarkX 1 2 ns/op\nBenchmarkX-2 10 0 widgets/op\nBenchmarkB-2 10 1e3 ns/op\n"))
	if err != nil || len(s) != 1 || s["BenchmarkB"][0].NsPerOp != 1000 {
		t.Fatalf("non-result lines not skipped: %v, %v", s, err)
	}
	if _, err := Parse(strings.NewReader(`{"BenchmarkX": {"ns_per_op": -1}}`)); err == nil || !strings.Contains(err.Error(), "BenchmarkX: ns/op -1") {
		t.Fatalf("negative JSON ns_per_op: err = %v", err)
	}
	if _, err := Parse(strings.NewReader(`{"BenchmarkX": {"ns_per_op": 1, "b_per_op": 12.5}}`)); err == nil {
		t.Fatal("fractional JSON b_per_op accepted")
	}
}

// TestDeriveEfficiency: each workers=1/workers=8 pair gains a per-sample
// speedup series; a speedup that is not finite (a workers=8 ns/op that
// underflows) is refused, naming the pair.
func TestDeriveEfficiency(t *testing.T) {
	s, err := Parse(strings.NewReader("BenchmarkS/workers=1-2 1 300 ns/op\nBenchmarkS/workers=8-2 1 100 ns/op\n" +
		"BenchmarkS/workers=1-2 1 400 ns/op\nBenchmarkS/workers=8-2 1 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Series{{NsPerOp: 3, Iterations: 1}, {NsPerOp: 4, Iterations: 1}}); !reflect.DeepEqual(s["BenchmarkS"+EffSuffix], want) {
		t.Fatalf("efficiency = %+v, want %+v", s["BenchmarkS"+EffSuffix], want)
	}
	_, err = Parse(strings.NewReader("BenchmarkS/workers=1-2 1 1000 ns/op\n" +
		"BenchmarkS/workers=8-2 1 0." + strings.Repeat("0", 319) + "1 ns/op\n"))
	if err == nil || !strings.Contains(err.Error(), "BenchmarkS/parallel-efficiency sample 1") {
		t.Fatalf("underflowing workers=8: err = %v, want an error naming the pair", err)
	}
}

// TestMedian: ns/op takes the float median, B/op and allocs/op the
// upper-middle recorded value, iterations the truncated mean of the middle
// two; a metric no sample records stays absent.
func TestMedian(t *testing.T) {
	i := func(v int64) *int64 { return &v }
	s := Series{
		{NsPerOp: 4, BPerOp: i(10), Iterations: 7},
		{NsPerOp: 1, BPerOp: i(30), Iterations: 2},
		{NsPerOp: 3, BPerOp: i(20), Iterations: 4},
		{NsPerOp: 2, Iterations: 1},
	}
	if got, want := s.Median(), (Record{NsPerOp: 2.5, BPerOp: i(20), Iterations: 3}); !reflect.DeepEqual(got, want) {
		t.Fatalf("median = %+v, want %+v", got, want)
	}
	big := Series{{NsPerOp: math.MaxFloat64}, {NsPerOp: math.MaxFloat64}}
	if got := big.Median().NsPerOp; got != math.MaxFloat64 {
		t.Fatalf("median of two MaxFloat64 = %v", got)
	}
}

func TestParseEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("garbage input parsed without error")
	}
	if _, err := Parse(strings.NewReader("")); err == nil {
		t.Fatal("empty input parsed without error")
	}
}

func load(t *testing.T, name string) Samples {
	t.Helper()
	s, err := ParseFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deltaFor finds the Delta for one (name, metric) pair.
func deltaFor(t *testing.T, rep Report, name string, m Metric) Delta {
	t.Helper()
	for _, d := range rep.Deltas {
		if d.Name == name && d.Metric == m {
			return d
		}
	}
	t.Fatalf("no delta for %s %s in %+v", name, m, rep.Deltas)
	return Delta{}
}

// TestCompareRegression: the injected 20% EngineStep slowdown is caught,
// and the two untouched benchmarks are not dragged along.
func TestCompareRegression(t *testing.T) {
	rep := Compare(load(t, "old.bench.txt"), load(t, "regression.bench.txt"), Options{})
	if rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%+v", rep.Regressions, rep.Deltas)
	}
	d := deltaFor(t, rep, "BenchmarkEngineStep/threads=8", NsPerOp)
	if d.Verdict != Regression {
		t.Fatalf("EngineStep verdict = %v, want Regression", d.Verdict)
	}
	if d.Pct < 0.15 || d.Pct > 0.25 {
		t.Fatalf("EngineStep delta = %v, want ~+0.20", d.Pct)
	}
	if !d.Tested || d.P >= 0.05 {
		t.Fatalf("EngineStep p = %v (tested=%v), want tested significant", d.P, d.Tested)
	}
	if d.NewLo > d.NewMedian || d.NewHi < d.NewMedian {
		t.Fatalf("bootstrap CI [%v,%v] excludes median %v", d.NewLo, d.NewHi, d.NewMedian)
	}
	for _, d := range rep.Deltas {
		if d.Name != "BenchmarkEngineStep/threads=8" || d.Metric != NsPerOp {
			if d.Verdict != Unchanged {
				t.Fatalf("%s %s verdict = %v, want Unchanged", d.Name, d.Metric, d.Verdict)
			}
		}
	}
}

// TestCompareAllocRegression: the fixtures' zero-allocation benchmarks gain
// allocations in allocregression.bench.txt; the 0 → nonzero rule must fail
// the gate even though ns/op is unchanged, and a large alloc increase on an
// already-allocating benchmark is caught by the ordinary threshold.
func TestCompareAllocRegression(t *testing.T) {
	rep := Compare(load(t, "old.bench.txt"), load(t, "allocregression.bench.txt"), Options{})
	if rep.Regressions != 4 {
		t.Fatalf("regressions = %d, want 4\n%+v", rep.Regressions, rep.Deltas)
	}
	d := deltaFor(t, rep, "BenchmarkEngineTimerHeavy", AllocsPerOp)
	if d.Verdict != Regression || !math.IsInf(d.Pct, 1) {
		t.Fatalf("0→2 allocs/op: verdict=%v pct=%v, want Regression +Inf", d.Verdict, d.Pct)
	}
	d = deltaFor(t, rep, "BenchmarkEngineTimerHeavy", BytesPerOp)
	if d.Verdict != Regression || !math.IsInf(d.Pct, 1) {
		t.Fatalf("0→48 B/op: verdict=%v pct=%v, want Regression +Inf", d.Verdict, d.Pct)
	}
	d = deltaFor(t, rep, "BenchmarkEngineAllocHeavy", AllocsPerOp)
	if d.Verdict != Regression || d.Pct < 0.9 || d.Pct > 1.1 {
		t.Fatalf("4→8 allocs/op: verdict=%v pct=%v, want Regression ~+1.0", d.Verdict, d.Pct)
	}
	d = deltaFor(t, rep, "BenchmarkEngineAllocHeavy", BytesPerOp)
	if d.Verdict != Regression {
		t.Fatalf("128→256 B/op: verdict=%v, want Regression", d.Verdict)
	}
	if d := deltaFor(t, rep, "BenchmarkEngineTimerHeavy", NsPerOp); d.Verdict != Unchanged {
		t.Fatalf("unchanged ns/op flagged: %+v", d)
	}
	if d := deltaFor(t, rep, "BenchmarkEngineBlockUnblockHeavy", AllocsPerOp); d.Verdict != Unchanged {
		t.Fatalf("0→0 allocs/op flagged: %+v", d)
	}
}

func TestCompareImprovement(t *testing.T) {
	rep := Compare(load(t, "old.bench.txt"), load(t, "improvement.bench.txt"), Options{})
	if rep.Regressions != 0 || rep.Improvements != 1 {
		t.Fatalf("regressions=%d improvements=%d, want 0/1\n%+v",
			rep.Regressions, rep.Improvements, rep.Deltas)
	}
}

func TestCompareNoChange(t *testing.T) {
	rep := Compare(load(t, "old.bench.txt"), load(t, "nochange.bench.txt"), Options{})
	if rep.Regressions != 0 || rep.Improvements != 0 {
		t.Fatalf("noise flagged as change: regressions=%d improvements=%d\n%+v",
			rep.Regressions, rep.Improvements, rep.Deltas)
	}
}

func TestCompareIdenticalInputs(t *testing.T) {
	s := load(t, "old.bench.txt")
	rep := Compare(s, s, Options{})
	if rep.Regressions != 0 || rep.Improvements != 0 {
		t.Fatalf("identical inputs flagged: %+v", rep.Deltas)
	}
	for _, d := range rep.Deltas {
		if d.Pct != 0 {
			t.Fatalf("identical inputs produced nonzero delta: %+v", d)
		}
	}
}

// TestCompareSmallSampleFallback: with n=1 per side (the checked-in
// BENCH_sim.json regime) there is no distribution to test, so the threshold
// alone decides.
func TestCompareSmallSampleFallback(t *testing.T) {
	old := Samples{"BenchmarkX": one(100), "BenchmarkY": one(100)}
	rep := Compare(old, Samples{"BenchmarkX": one(121), "BenchmarkY": one(103)}, Options{Threshold: 0.10})
	if rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (threshold-only fallback)\n%+v",
			rep.Regressions, rep.Deltas)
	}
	if d := rep.Deltas[0]; d.Name != "BenchmarkX" || d.Verdict != Regression || d.Tested {
		t.Fatalf("small-n delta wrong: %+v", d)
	}
	if d := rep.Deltas[1]; d.Verdict != Unchanged {
		t.Fatalf("3%% move under a 10%% threshold flagged: %+v", d)
	}
}

// TestCompareSignificanceGuards: a large-looking delta backed by wildly
// overlapping samples must NOT be flagged — that is the whole point of the
// statistical gate.
func TestCompareSignificanceGuards(t *testing.T) {
	var oldS, newS Series
	for _, v := range []float64{100, 180, 95, 170, 105} {
		oldS = append(oldS, Record{NsPerOp: v})
	}
	for _, v := range []float64{165, 98, 175, 102, 160} {
		newS = append(newS, Record{NsPerOp: v})
	}
	rep := Compare(Samples{"BenchmarkX": oldS}, Samples{"BenchmarkX": newS}, Options{Threshold: 0.05})
	if rep.Regressions != 0 {
		t.Fatalf("noisy overlap flagged as regression: %+v", rep.Deltas)
	}
}

// TestCompareAddedRemoved: names on one side only are reported, not failed.
func TestCompareAddedRemoved(t *testing.T) {
	rep := Compare(Samples{"BenchmarkGone": one(50)}, Samples{"BenchmarkNew": one(60)}, Options{})
	if rep.Regressions != 0 || rep.Improvements != 0 {
		t.Fatal("added/removed benchmarks counted as changes")
	}
	verdicts := map[string]Verdict{}
	for _, d := range rep.Deltas {
		verdicts[d.Name] = d.Verdict
	}
	if verdicts["BenchmarkGone"] != OnlyOld || verdicts["BenchmarkNew"] != OnlyNew {
		t.Fatalf("verdicts = %v", verdicts)
	}
}

// TestRenderGolden locks the benchstat-style table for the fixture
// comparisons.
func TestRenderGolden(t *testing.T) {
	old := load(t, "old.bench.txt")
	var buf bytes.Buffer
	for _, name := range []string{"regression", "allocregression", "improvement", "nochange"} {
		rep := Compare(old, load(t, name+".bench.txt"), Options{})
		buf.WriteString("== old vs " + name + " ==\n")
		rep.Render(&buf)
		buf.WriteString("\n")
	}
	path := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("table drifted from golden (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

// writeBench writes samples back as `go test -bench` lines, in name order,
// with the -1 GOMAXPROCS suffix go test appends.
func writeBench(s Samples) string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		for _, r := range s[n] {
			fmt.Fprintf(&b, "%s-1\t%d\t%s ns/op", n, r.Iterations, strconv.FormatFloat(r.NsPerOp, 'g', -1, 64))
			if r.BPerOp != nil {
				fmt.Fprintf(&b, "\t%d B/op", *r.BPerOp)
			}
			if r.AllocsPerOp != nil {
				fmt.Fprintf(&b, "\t%d allocs/op", *r.AllocsPerOp)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FuzzParse holds Parse to its contract on any input, in either format it
// sniffs: it never panics; it returns an error or a non-empty set of
// samples; whatever it accepts, WriteJSON writes a map Parse reads back;
// and accepted samples survive a round trip through their own format —
// written as bench lines (text) or as a BENCH_sim.json map (JSON), they
// read back identical.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(s) == 0 {
			t.Fatalf("Parse returned no samples and no error for %q", b)
		}
		var js bytes.Buffer
		if err := s.WriteJSON(&js); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		fromJSON, err := Parse(&js)
		if err != nil {
			t.Fatalf("written map rejected: %v\n%s", err, js.Bytes())
		}
		again, text := fromJSON, js.String()
		if trim := bytes.TrimLeft(b, " \t\r\n"); trim[0] != '{' {
			text = writeBench(s)
			if again, err = Parse(strings.NewReader(text)); err != nil {
				t.Fatalf("written bench lines rejected: %v\n%s", err, text)
			}
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("samples do not round-trip:\n%+v\n%+v\n%s", s, again, text)
		}
	})
}
