package main

import (
	"fmt"
	"strings"

	"chopin/internal/cpuarch"
	"chopin/internal/figures"
	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/lbo"
	"chopin/internal/nominal"
	"chopin/internal/report"
	"chopin/internal/workload"
)

func collectorNames(opt harness.Options) []string {
	ks := opt.Collectors
	if ks == nil {
		ks = gc.Kinds
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return names
}

// gridMinHeap recovers the grid's minimum heap from its factor-1 cell, else
// from the first cell's heap-to-factor ratio.
func gridMinHeap(g *lbo.Grid) float64 {
	min := 0.0
	for _, c := range g.Cells {
		if c.HeapFactor == 1 || min == 0 {
			min = c.HeapMB / c.HeapFactor
		}
	}
	return min
}

func geomeanCSV(pts []lbo.GeomeanPoint) string {
	t := report.NewTable("collector", "heap_factor", "wall_lbo", "cpu_lbo", "benchmarks", "complete")
	for _, p := range pts {
		t.AddRowf(p.Collector, p.HeapFactor, p.Wall, p.CPU, p.Benchmarks, p.Complete)
	}
	var b strings.Builder
	t.CSV(&b)
	return b.String()
}

func gridCSV(g *lbo.Grid) (string, error) {
	ovs, err := g.Overheads()
	if err != nil {
		return "", err
	}
	t := report.NewTable("benchmark", "collector", "heap_factor", "heap_mb",
		"completed", "wall_lbo", "cpu_lbo")
	for _, o := range ovs {
		t.AddRowf(g.Benchmark, o.Collector, o.HeapFactor, o.HeapMB, o.Completed, o.Wall, o.CPU)
	}
	var b strings.Builder
	t.CSV(&b)
	return b.String(), nil
}

// pcaReport renders Figure 4 followed by the most determinant nominal
// statistics, the PCA loadings behind Table 2's selection.
func pcaReport(table *nominal.SuiteTable) (string, error) {
	out, err := figures.PCAFigure(table)
	if err != nil {
		return "", err
	}
	names, err := table.MostDeterminant(12, 4)
	if err != nil {
		return "", err
	}
	t := report.NewTable("rank", "metric", "description")
	for i, n := range names {
		m, _ := nominal.MetricByName(n)
		t.AddRowf(i+1, n, m.Description)
	}
	return out + "most determinant nominal statistics (PCA loadings, top 4 PCs):\n" + t.String(), nil
}

// calibrationTable compares each workload's measured headline statistics
// with the published values its model was calibrated to.
func calibrationTable(ds []*workload.Descriptor, chars []*nominal.Characterization) string {
	t := report.NewTable("benchmark",
		"GMD meas", "GMD pub", "ARA meas", "ARA pub", "PET meas", "PET pub", "GSS meas")
	for i, d := range ds {
		c := chars[i]
		t.AddRowf(d.Name,
			c.Value("GMD"), d.MinHeapMB,
			c.Value("ARA"), d.ARA,
			c.Value("PET"), d.PETSeconds,
			c.Value("GSS"))
	}
	return "calibration: measured nominal statistics vs published targets\n" + t.String()
}

// archAnalysis reproduces the Section 6.4 discussion: the IPC extremes of
// the suite and what the top-down model attributes them to.
func archAnalysis() (string, error) {
	t := report.NewTable("benchmark", "IPC", "front-end", "bad-spec", "back-end",
		"be-memory", "LLC/MI", "DC/KI", "DTLB/MI", "slow-DRAM x", "LLC/16 x", "boost x")
	for _, d := range workload.All() {
		td := d.Arch.Analyze(cpuarch.Zen4)
		t.AddRowf(d.Name, td.IPC, td.FrontEnd, td.BadSpec, td.BackEnd, td.BackEndMemory,
			d.Arch.LLCMissPerMI, d.Arch.DCMissPerKI, d.Arch.DTLBMissPerMI,
			d.Arch.TimeFactor(cpuarch.Zen4.WithSlowDRAM()),
			d.Arch.TimeFactor(cpuarch.Zen4.WithLLCScale(1.0/16)),
			d.Arch.TimeFactor(cpuarch.Zen4.WithBoost(cpuarch.ZenBoostGHz)))
	}
	var b strings.Builder
	b.WriteString("Section 6.4: architectural sensitivity on the reference Zen4 machine\n")
	b.WriteString(t.String())
	b.WriteString("\n")
	for _, focus := range []struct{ name, note string }{
		{"biojava", "highest IPC: tuned computation, lowest cache misses, gains most from frequency"},
		{"jython", "high IPC from an interpreter loop; pays in bad speculation, indifferent to memory"},
		{"xalan", "low IPC from poor locality: high data-cache, LLC and DTLB miss rates"},
		{"h2o", "lowest IPC: memory-bound ML, highest LLC misses and back-end stalls, DRAM-speed sensitive"},
	} {
		d, err := workload.ByName(focus.name)
		if err != nil {
			return "", err
		}
		td := d.Arch.Analyze(cpuarch.Zen4)
		fmt.Fprintf(&b, "%-8s IPC %.2f  %s\n", d.Name, td.IPC, focus.note)
	}
	return b.String(), nil
}

// appendixChapter renders the benchmark's Appendix B chapter: description,
// complete nominal statistics, LBO figures, post-GC heap timeline and, when
// latency is non-nil, latency tables at 2x and 6x heaps.
func appendixChapter(d *workload.Descriptor, table *nominal.SuiteTable, grid *harness.PendingGrid,
	timeline func() ([]harness.HeapSample, error), latency *harness.PendingLatency) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", strings.ToUpper(d.Name), strings.Repeat("=", len(d.Name)))
	fmt.Fprintf(&b, "%s\n", d.Description)
	if d.NewInChopin {
		b.WriteString("(New in the Chopin release.)\n")
	}
	if d.Estimated {
		b.WriteString("(Calibration targets partially estimated; see DESIGN.md.)\n")
	}
	b.WriteString("\n--- Nominal statistics ---\n\n")
	stats, err := figures.BenchmarkTable(table, d.Name)
	if err != nil {
		return "", err
	}
	b.WriteString(stats)

	b.WriteString("\n--- Lower bound overheads ---\n\n")
	g, minMB, err := grid.Wait()
	if err != nil {
		return "", err
	}
	lboOut, err := figures.LBOFigure(g, minMB)
	if err != nil {
		return "", err
	}
	b.WriteString(lboOut)

	b.WriteString("\n--- Post-GC heap size (G1, 2.0x heap) ---\n\n")
	samples, err := timeline()
	if err != nil {
		return "", err
	}
	b.WriteString(figures.HeapTimelineFigure(d.Name, samples))

	if latency != nil {
		b.WriteString("\n--- User-experienced latency (2x and 6x heaps) ---\n\n")
		results, err := latency.Wait()
		if err != nil {
			return "", err
		}
		b.WriteString(figures.LatencyFigure(results))
		b.WriteString("\n")
		b.WriteString(figures.PauseSummary(results))
	}
	return b.String(), nil
}
