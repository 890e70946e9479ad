package figures

import (
	"strings"
	"testing"

	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/lbo"
	"chopin/internal/nominal"
	"chopin/internal/workload"
)

func testGrid() *lbo.Grid {
	g := &lbo.Grid{Benchmark: "demo"}
	for _, c := range []string{"Serial", "ZGC"} {
		for _, f := range []float64{2, 6} {
			m := lbo.Measurement{
				Collector: c, HeapFactor: f, HeapMB: f * 100, Completed: true,
				WallNS: 200 / f * 2, CPUNS: 300 / f * 2, STWWallNS: 20, GCCPUNS: 30,
			}
			g.Add(m)
		}
	}
	g.Add(lbo.Measurement{Collector: "ZGC", HeapFactor: 1, Completed: false})
	return g
}

func TestGeomeanFigureRendersAndOmitsIncomplete(t *testing.T) {
	pts := []lbo.GeomeanPoint{
		{Collector: "Serial", HeapFactor: 2, Wall: 1.5, CPU: 1.2, Benchmarks: 2, Complete: true},
		{Collector: "Serial", HeapFactor: 6, Wall: 1.1, CPU: 1.05, Benchmarks: 2, Complete: true},
		{Collector: "ZGC", HeapFactor: 2, Wall: 2.0, CPU: 3.0, Benchmarks: 1, Complete: false},
	}
	out := GeomeanFigure(pts, []string{"Serial", "ZGC"})
	if !strings.Contains(out, "Figure 1(a)") || !strings.Contains(out, "Figure 1(b)") {
		t.Fatal("missing figure titles")
	}
	if !strings.Contains(out, "S=Serial") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(out, "false") {
		t.Fatal("table should record incomplete points")
	}
}

func TestLBOFigure(t *testing.T) {
	out, err := LBOFigure(testGrid(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "wall-clock LBO", "TASK_CLOCK", "OOM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("LBO figure missing %q", want)
		}
	}
}

func TestTable1ContainsAllMetrics(t *testing.T) {
	out := Table1()
	for _, m := range nominal.Metrics {
		if !strings.Contains(out, m.Name) {
			t.Fatalf("Table 1 missing %s", m.Name)
		}
	}
}

func quickChar(t *testing.T, d *workload.Descriptor) *nominal.Characterization {
	t.Helper()
	c, err := nominal.Characterize(d, nominal.Options{
		Events: 200, Invocations: 2, WarmupIters: 6, SkipSizeVariants: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTable2AndBenchmarkTable(t *testing.T) {
	table := nominal.BuildSuite([]*nominal.Characterization{
		quickChar(t, workload.Fop), quickChar(t, workload.Jme),
	})
	t2 := Table2(table)
	for _, want := range []string{"fop", "jme", "GLK", "USF"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("Table 2 missing %q", want)
		}
	}
	bt, err := BenchmarkTable(table, "fop")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GMD", "score", "rank", "median"} {
		if !strings.Contains(bt, want) {
			t.Fatalf("benchmark table missing %q", want)
		}
	}
	if strings.Contains(bt, "GMV") {
		t.Fatal("skipped metric should be omitted from the appendix table")
	}
	if _, err := BenchmarkTable(table, "nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestPCAFigure(t *testing.T) {
	table := nominal.BuildSuite([]*nominal.Characterization{
		quickChar(t, workload.Fop), quickChar(t, workload.Jme),
		quickChar(t, workload.H2o),
	})
	out, err := PCAFigure(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PC1", "variance", "a=fop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("PCA figure missing %q", want)
		}
	}
}

func TestLatencyMMUAndPauseFigures(t *testing.T) {
	results, err := harness.Latency(workload.Kafka, []float64{2}, harness.Options{
		Collectors: []gc.Kind{gc.Serial}, Events: 300, Iterations: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lf := LatencyFigure(results)
	for _, want := range []string{"Simple latency", "Metered (100ms smoothing)",
		"Metered (full smoothing)", "p99.9"} {
		if !strings.Contains(lf, want) {
			t.Fatalf("latency figure missing %q", want)
		}
	}
	mmu := MMUFigure(results)
	if !strings.Contains(mmu, "mmu@100ms") {
		t.Fatal("MMU figure missing window columns")
	}
	ps := PauseSummary(results)
	if !strings.Contains(ps, "max pause") {
		t.Fatal("pause summary missing columns")
	}
}

func TestHeapTimelineFigure(t *testing.T) {
	out := HeapTimelineFigure("x", []harness.HeapSample{
		{TimeSec: 0.1, UsedMB: 10}, {TimeSec: 0.2, UsedMB: 14},
	})
	if !strings.Contains(out, "heap size after each GC") {
		t.Fatal("missing title")
	}
}
