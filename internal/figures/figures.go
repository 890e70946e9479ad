// Package figures renders experiment results in the shape of the paper's
// tables and figures: LBO curves (Figures 1, 5 and appendix), latency
// percentile tables and CDFs (Figures 3, 6), the PCA scatter (Figure 4), the
// nominal-statistics tables (Tables 1-3) and heap timelines (appendix).
package figures

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"chopin/internal/harness"
	"chopin/internal/latency"
	"chopin/internal/lbo"
	"chopin/internal/nominal"
	"chopin/internal/report"
	"chopin/internal/stats"
)

// GeomeanFigure renders Figure 1: cross-suite geometric-mean LBO curves as a
// function of heap factor, one plot for wall clock and one for task clock.
// Incomplete points (a collector that could not run every benchmark) are
// omitted, as in the paper.
func GeomeanFigure(pts []lbo.GeomeanPoint, collectors []string) string {
	var b strings.Builder
	wall := &report.LinePlot{
		Title:  "Figure 1(a): lower bound wall-clock overhead (geomean)",
		XLabel: "heap size (x minheap)", YLabel: "normalized time overhead (LBO)",
		YMin: 1, YMax: 2,
	}
	cpu := &report.LinePlot{
		Title:  "Figure 1(b): lower bound total CPU overhead (geomean, TASK_CLOCK)",
		XLabel: "heap size (x minheap)", YLabel: "normalized CPU overhead (LBO)",
		YMin: 1, YMax: 2,
	}
	for _, c := range collectors {
		var xs, yw, yc []float64
		for _, p := range pts {
			if p.Collector != c || !p.Complete {
				continue
			}
			xs = append(xs, p.HeapFactor)
			yw = append(yw, p.Wall)
			yc = append(yc, p.CPU)
		}
		if len(xs) == 0 {
			continue
		}
		m := report.MarkerFor(c)
		wall.Series = append(wall.Series, report.Series{Label: c, Marker: m, X: xs, Y: yw})
		cpu.Series = append(cpu.Series, report.Series{Label: c, Marker: m, X: xs, Y: yc})
	}
	wall.Render(&b)
	b.WriteByte('\n')
	cpu.Render(&b)
	b.WriteByte('\n')
	b.WriteString(GeomeanTable(pts))
	return b.String()
}

// GeomeanTable renders the Figure 1 data as rows (collector x heap factor).
func GeomeanTable(pts []lbo.GeomeanPoint) string {
	t := report.NewTable("collector", "heap(x)", "wall LBO", "cpu LBO", "benchmarks", "complete")
	for _, p := range pts {
		t.AddRowf(p.Collector, p.HeapFactor, p.Wall, p.CPU, p.Benchmarks, p.Complete)
	}
	return t.String()
}

// LBOFigure renders a per-benchmark LBO figure pair (Figure 5 / appendix):
// wall and CPU overhead curves over heap factor for each collector.
func LBOFigure(grid *lbo.Grid, minMB float64) (string, error) {
	ovs, err := grid.Overheads()
	if err != nil {
		return "", err
	}
	byCollector := map[string][]lbo.Overhead{}
	var order []string
	for _, o := range ovs {
		if _, seen := byCollector[o.Collector]; !seen {
			order = append(order, o.Collector)
		}
		byCollector[o.Collector] = append(byCollector[o.Collector], o)
	}
	var b strings.Builder
	wall := &report.LinePlot{
		Title:  fmt.Sprintf("%s: wall-clock LBO (minheap %.0fMB)", grid.Benchmark, minMB),
		XLabel: "heap size (x minheap)", YLabel: "normalized time overhead",
		YMin: 1, YMax: 2,
	}
	cpu := &report.LinePlot{
		Title:  fmt.Sprintf("%s: total CPU LBO (TASK_CLOCK)", grid.Benchmark),
		XLabel: "heap size (x minheap)", YLabel: "normalized CPU overhead",
		YMin: 1, YMax: 2,
	}
	// 95% confidence intervals of the normalized overheads, from the
	// per-invocation samples (the paper shades its curves the same way).
	ci := map[string][2]float64{}
	bw, _ := grid.BaselineWall()
	bc, _ := grid.BaselineCPU()
	for _, m := range grid.Cells {
		if !m.Completed || bw <= 0 || bc <= 0 {
			continue
		}
		key := fmt.Sprintf("%s@%g", m.Collector, m.HeapFactor)
		ci[key] = [2]float64{stats.CI95(m.WallSamples) / bw, stats.CI95(m.CPUSamples) / bc}
	}
	tab := report.NewTable("collector", "heap(x)", "heap(MB)", "wall LBO", "±95%", "cpu LBO", "±95%")
	for _, c := range order {
		var xs, yw, yc []float64
		for _, o := range byCollector[c] {
			if !o.Completed {
				tab.AddRowf(o.Collector, o.HeapFactor, o.HeapMB, "OOM", "", "OOM", "")
				continue
			}
			xs = append(xs, o.HeapFactor)
			yw = append(yw, o.Wall)
			yc = append(yc, o.CPU)
			bounds := ci[fmt.Sprintf("%s@%g", o.Collector, o.HeapFactor)]
			tab.AddRowf(o.Collector, o.HeapFactor, o.HeapMB, o.Wall, bounds[0], o.CPU, bounds[1])
		}
		if len(xs) == 0 {
			continue
		}
		m := report.MarkerFor(c)
		wall.Series = append(wall.Series, report.Series{Label: c, Marker: m, X: xs, Y: yw})
		cpu.Series = append(cpu.Series, report.Series{Label: c, Marker: m, X: xs, Y: yc})
	}
	wall.Render(&b)
	b.WriteByte('\n')
	cpu.Render(&b)
	b.WriteByte('\n')
	tab.Render(&b)
	return b.String(), nil
}

// latencyViews maps view names to distribution accessors.
var latencyViews = []struct {
	name string
	get  func(harness.LatencyResult) *latency.Distribution
}{
	{"simple", func(r harness.LatencyResult) *latency.Distribution { return r.Simple }},
	{"metered-100ms", func(r harness.LatencyResult) *latency.Distribution { return r.Metered100 }},
	{"metered-full", func(r harness.LatencyResult) *latency.Distribution { return r.MeteredFull }},
}

// LatencyFigure renders a latency experiment (Figures 3/6): for each heap
// factor and view, a percentile table of every collector in ms.
func LatencyFigure(results []harness.LatencyResult) string {
	var b strings.Builder
	factors := map[float64]bool{}
	for _, r := range results {
		factors[r.HeapFactor] = true
	}
	var fs []float64
	for f := range factors {
		fs = append(fs, f)
	}
	sort.Float64s(fs)
	for _, f := range fs {
		for _, view := range latencyViews {
			fmt.Fprintf(&b, "%s latency, %s, %.1fx heap (ms):\n",
				viewTitle(view.name), benchName(results), f)
			t := report.NewTable(append([]string{"collector"}, percentileHeaders()...)...)
			for _, r := range results {
				if r.HeapFactor != f {
					continue
				}
				if !r.Completed {
					t.AddRow(r.Collector, "OOM")
					continue
				}
				cells := []interface{}{r.Collector}
				for _, v := range view.get(r).Report() {
					cells = append(cells, v/1e6)
				}
				t.AddRowf(cells...)
			}
			t.Render(&b)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func viewTitle(v string) string {
	switch v {
	case "simple":
		return "Simple"
	case "metered-100ms":
		return "Metered (100ms smoothing)"
	default:
		return "Metered (full smoothing)"
	}
}

func benchName(results []harness.LatencyResult) string {
	if len(results) > 0 {
		return results[0].Benchmark
	}
	return "?"
}

func percentileHeaders() []string {
	out := make([]string, len(latency.ReportPercentiles))
	for i, p := range latency.ReportPercentiles {
		if p == 0 {
			out[i] = "min"
		} else {
			out[i] = fmt.Sprintf("p%g", p)
		}
	}
	return out
}

// MMUFigure renders the MMU-vs-window curves (the Figure 2 discussion) for
// each collector of a latency experiment at one heap factor.
func MMUFigure(results []harness.LatencyResult) string {
	windows := []float64{1e6, 1e7, 1e8, 1e9, 1e10} // 1ms .. 10s
	t := report.NewTable("collector", "heap(x)", "mmu@1ms", "mmu@10ms",
		"mmu@100ms", "mmu@1s", "mmu@10s")
	for _, r := range results {
		if !r.Completed {
			continue
		}
		cells := []interface{}{r.Collector, r.HeapFactor}
		for _, w := range windows {
			cells = append(cells, latency.MMU(r.Pauses, r.RunStart, r.RunEnd, w))
		}
		t.AddRowf(cells...)
	}
	return t.String()
}

// PauseSummary contrasts GC pause statistics with user-experienced latency,
// the paper's core latency argument: pause times systematically understate
// what users experience.
func PauseSummary(results []harness.LatencyResult) string {
	t := report.NewTable("collector", "heap(x)", "pauses", "max pause (ms)",
		"p99.9 simple (ms)", "p99.9 metered-full (ms)")
	for _, r := range results {
		if !r.Completed {
			continue
		}
		var maxPause float64
		for _, p := range r.Pauses {
			maxPause = math.Max(maxPause, p.Duration())
		}
		t.AddRowf(r.Collector, r.HeapFactor, len(r.Pauses), maxPause/1e6,
			r.Simple.Percentile(99.9)/1e6, r.MeteredFull.Percentile(99.9)/1e6)
	}
	return t.String()
}

// PCAFigure renders Figure 4: PC1/PC2 and PC3/PC4 scatter plots of the
// suite plus the explained-variance summary.
func PCAFigure(table *nominal.SuiteTable) (string, error) {
	names, res, err := table.PCA()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PCA over %d complete nominal metrics, %d benchmarks\n",
		len(names), len(table.Benchmarks))
	for c := 0; c < 4 && c < len(res.ExplainedVariance); c++ {
		fmt.Fprintf(&b, "PC%d explains %.0f%% of variance\n",
			c+1, res.ExplainedVariance[c]*100)
	}
	b.WriteByte('\n')
	plotPair := func(a, bIdx int) {
		if bIdx >= len(res.Components) {
			return
		}
		p := &report.ScatterPlot{
			Title:  fmt.Sprintf("Figure 4: PC%d vs PC%d", a+1, bIdx+1),
			XLabel: fmt.Sprintf("PC%d (%.0f%%)", a+1, res.ExplainedVariance[a]*100),
			YLabel: fmt.Sprintf("PC%d (%.0f%%)", bIdx+1, res.ExplainedVariance[bIdx]*100),
			Names:  table.Benchmarks,
		}
		for i := range table.Benchmarks {
			p.X = append(p.X, res.Projected[i][a])
			p.Y = append(p.Y, res.Projected[i][bIdx])
		}
		p.Render(&b)
		b.WriteByte('\n')
	}
	plotPair(0, 1)
	plotPair(2, 3)
	return b.String(), nil
}

// Table1 renders the nominal-statistics catalogue.
func Table1() string {
	t := report.NewTable("metric", "group", "source", "description")
	for _, m := range nominal.Metrics {
		src := "trait"
		if m.Measured {
			src = "measured"
		}
		t.AddRow(m.Name, string(m.Group()), src, m.Description)
	}
	return t.String()
}

// Table2 renders the twelve most determinant nominal statistics for every
// benchmark: rank (per the suite) and concrete value.
func Table2(table *nominal.SuiteTable) string {
	t := report.NewTable(append([]string{"benchmark"}, nominal.Table2Metrics...)...)
	for i, bench := range table.Benchmarks {
		cells := []string{bench}
		for _, mn := range nominal.Table2Metrics {
			j := table.MetricIndex(mn)
			if j < 0 || table.Ranks[i][j] == 0 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%d: %s",
				table.Ranks[i][j], report.FormatFloat(table.Values[i][j])))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// BenchmarkTable renders a benchmark's complete nominal statistics in the
// appendix format: score, value, rank, and the suite's min/median/max.
func BenchmarkTable(table *nominal.SuiteTable, bench string) (string, error) {
	idx := -1
	for i, b := range table.Benchmarks {
		if b == bench {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", fmt.Errorf("figures: %s not in suite table", bench)
	}
	t := report.NewTable("metric", "score", "value", "rank", "min", "median", "max", "description")
	for j, m := range nominal.Metrics {
		v := table.Values[idx][j]
		if math.IsNaN(v) {
			continue // not available for this benchmark, as in the paper
		}
		var all []float64
		for i := range table.Benchmarks {
			if !math.IsNaN(table.Values[i][j]) {
				all = append(all, table.Values[i][j])
			}
		}
		t.AddRowf(m.Name, table.Scores[idx][j], v, table.Ranks[idx][j],
			stats.Summarize(all).Min, stats.Percentile(all, 50),
			stats.Summarize(all).Max, m.Description)
	}
	return t.String(), nil
}

// HeapTimelineFigure renders the appendix post-GC heap-size figure.
func HeapTimelineFigure(bench string, samples []harness.HeapSample) string {
	p := &report.LinePlot{
		Title:  fmt.Sprintf("%s: heap size after each GC (G1, 2.0x heap)", bench),
		XLabel: "time (s)", YLabel: "heap size (MB)",
	}
	var xs, ys []float64
	for _, s := range samples {
		xs = append(xs, s.TimeSec)
		ys = append(ys, s.UsedMB)
	}
	p.Series = []report.Series{{Label: "post-GC used", Marker: '*', X: xs, Y: ys}}
	var b strings.Builder
	p.Render(&b)
	return b.String()
}
