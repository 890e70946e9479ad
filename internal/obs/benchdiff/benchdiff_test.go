package benchdiff

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// one builds a single-sample Series for threshold-fallback tests.
func one(ns float64) *Series {
	s := &Series{}
	s.Add(NsPerOp, ns)
	return s
}

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
	name, vals, has, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("line with custom metrics rejected")
	}
	if name != "BenchmarkFigure1GeomeanLBO" {
		t.Fatalf("name = %q", name)
	}
	if !has[NsPerOp] || vals[NsPerOp] != 5771234567 {
		t.Fatalf("ns = %v (has %v)", vals[NsPerOp], has[NsPerOp])
	}
	if !has[BytesPerOp] || vals[BytesPerOp] != 1048576 {
		t.Fatalf("B/op = %v (has %v)", vals[BytesPerOp], has[BytesPerOp])
	}
	if !has[AllocsPerOp] || vals[AllocsPerOp] != 30912345 {
		t.Fatalf("allocs/op = %v (has %v)", vals[AllocsPerOp], has[AllocsPerOp])
	}
	// Without -benchmem the line ends after the custom metrics.
	_, _, has, ok = parseBenchLine("BenchmarkX-8   100   50.0 ns/op   3.0 widgets/op")
	if !ok || has[BytesPerOp] || has[AllocsPerOp] {
		t.Fatalf("no-benchmem line: ok=%v has=%v", ok, has)
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
	oldS, newS := &Series{}, &Series{}
	for _, v := range []float64{100, 180, 95, 170, 105} {
		oldS.Add(NsPerOp, v)
	}
	for _, v := range []float64{165, 98, 175, 102, 160} {
		newS.Add(NsPerOp, v)
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

// FuzzParse holds Parse to its contract on any input, in either format it
// sniffs: it never panics, and it either returns an error or a non-empty
// set of samples.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(bytes.NewReader(b))
		if err == nil && len(s) == 0 {
			t.Fatalf("Parse returned no samples and no error for %q", b)
		}
	})
}
