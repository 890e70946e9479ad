// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// bench regenerates its artifact end to end (at reduced event/invocation
// counts so the whole harness stays runnable in minutes) and reports the
// headline numbers as benchmark metrics.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=Figure1 -v
package chopin

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"chopin/internal/figures"
	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/latency"
	"chopin/internal/nominal"
	"chopin/internal/workload"
)

// benchSweep is the reduced sweep shape used by the figure benches.
func benchSweep() harness.Options {
	return harness.Options{
		HeapFactors: []float64{1.5, 2, 3, 6},
		Invocations: 1,
		Iterations:  2,
		Events:      200,
		Seed:        42,
	}
}

// BenchmarkFigure1GeomeanLBO regenerates Figure 1: geometric-mean wall and
// task-clock LBO curves over the full 22-benchmark suite for the five
// production collectors.
func BenchmarkFigure1GeomeanLBO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pts, err := harness.SuiteLBO(nil, benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Collector == "Serial" && p.HeapFactor == 6 && p.Complete {
				b.ReportMetric(p.CPU, "serial-cpu-lbo@6x")
			}
			if p.Collector == "ZGC" && p.HeapFactor == 6 && p.Complete {
				b.ReportMetric(p.CPU, "zgc-cpu-lbo@6x")
			}
		}
	}
}

// BenchmarkFigure2MMU regenerates the Figure 2 methodology: minimum mutator
// utilization curves demonstrating why pause counts mislead.
func BenchmarkFigure2MMU(b *testing.B) {
	res, err := workload.Run(workload.Lusearch, workload.RunConfig{
		HeapMB: 2 * workload.Lusearch.MinHeapMB, Collector: gc.Serial,
		Iterations: 2, Events: 1000, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	last := res.Last()
	windows := []float64{1e6, 1e7, 1e8, 1e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := latency.MMUCurve(res.Log.Pauses, last.StartNS, last.EndNS, windows)
		b.ReportMetric(curve[2], "mmu@100ms")
	}
}

// BenchmarkFigure3CassandraLatency regenerates Figure 3: cassandra request
// latency distributions (simple, metered-100ms, metered-full) at 2x and 6x.
func BenchmarkFigure3CassandraLatency(b *testing.B) {
	benchLatency(b, workload.Cassandra)
}

// BenchmarkFigure6H2Latency regenerates Figure 6: h2 query latency
// distributions at 2x and 6x.
func BenchmarkFigure6H2Latency(b *testing.B) {
	benchLatency(b, workload.H2)
}

func benchLatency(b *testing.B, d *workload.Descriptor) {
	b.Helper()
	opt := harness.Options{Events: 2000, Iterations: 2, Seed: 42}
	for i := 0; i < b.N; i++ {
		results, err := harness.Latency(d, []float64{2, 6}, opt)
		if err != nil {
			b.Fatal(err)
		}
		out := figures.LatencyFigure(results)
		if !strings.Contains(out, "p99.9") {
			b.Fatal("latency figure missing percentile columns")
		}
		for _, r := range results {
			if r.Collector == "G1" && r.HeapFactor == 6 && r.Completed {
				b.ReportMetric(r.Simple.Percentile(99.9)/1e6, "g1-p99.9-ms@6x")
			}
		}
	}
}

// BenchmarkFigure4PCA regenerates Figure 4: quick-characterize all 22
// workloads and run PCA over the complete nominal metrics.
func BenchmarkFigure4PCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table := characterizeSuiteQuick(b)
		_, res, err := table.PCA()
		if err != nil {
			b.Fatal(err)
		}
		top4 := 0.0
		for c := 0; c < 4 && c < len(res.ExplainedVariance); c++ {
			top4 += res.ExplainedVariance[c]
		}
		// Paper: the top four PCs explain a bit over 50% of the variance.
		b.ReportMetric(top4*100, "top4-variance-%")
	}
}

func characterizeSuiteQuick(b *testing.B) *nominal.SuiteTable {
	b.Helper()
	chars, err := nominal.CharacterizeSuite(workload.All(), nominal.Options{
		Events: 200, Invocations: 2, WarmupIters: 8,
		SkipSizeVariants: true, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return nominal.BuildSuite(chars)
}

// BenchmarkFigure5LBOCassandraLusearch regenerates Figure 5: per-benchmark
// LBO for cassandra and lusearch, wall and task clock.
func BenchmarkFigure5LBOCassandraLusearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []*workload.Descriptor{workload.Cassandra, workload.Lusearch} {
			grid, minMB, err := harness.LBOGrid(d, benchSweep())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := figures.LBOFigure(grid, minMB); err != nil {
				b.Fatal(err)
			}
			ovs, _ := grid.Overheads()
			for _, o := range ovs {
				if d == workload.Lusearch && o.Collector == "Shenandoah" &&
					o.HeapFactor == 2 && o.Completed {
					b.ReportMetric(o.Wall, "lusearch-shen-wall-lbo@2x")
				}
			}
		}
	}
}

// BenchmarkTable1Catalogue renders the 48-metric nominal catalogue.
func BenchmarkTable1Catalogue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := figures.Table1()
		if !strings.Contains(out, "ARA") || !strings.Contains(out, "USF") {
			b.Fatal("catalogue incomplete")
		}
	}
}

// BenchmarkTable2MostDeterminant regenerates Table 2: the twelve most
// determinant nominal statistics with per-benchmark ranks and values.
func BenchmarkTable2MostDeterminant(b *testing.B) {
	table := characterizeSuiteQuick(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := figures.Table2(table)
		if !strings.Contains(out, "lusearch") {
			b.Fatal("Table 2 missing benchmarks")
		}
	}
}

// BenchmarkTable3AppendixBenchmark regenerates an appendix-style complete
// nominal-statistics table (Table 3 is avrora).
func BenchmarkTable3AppendixBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := nominal.Characterize(workload.Avrora, nominal.Options{
			Events: 200, Invocations: 2, SkipSizeVariants: true, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		table := nominal.BuildSuite([]*nominal.Characterization{c})
		out, err := figures.BenchmarkTable(table, "avrora")
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "GMD") {
			b.Fatal("appendix table incomplete")
		}
	}
}

// BenchmarkAppendixLBOPerBenchmark regenerates one appendix LBO figure
// (Figure 7 is avrora).
func BenchmarkAppendixLBOPerBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, minMB, err := harness.LBOGrid(workload.Avrora, benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := figures.LBOFigure(grid, minMB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendixHeapTimeline regenerates an appendix post-GC heap-size
// figure (Figure 8 style) for h2o.
func BenchmarkAppendixHeapTimeline(b *testing.B) {
	opt := harness.Options{Events: 400, Iterations: 2, Seed: 42}
	for i := 0; i < b.N; i++ {
		samples, err := harness.HeapTimeline(workload.H2o, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(samples) == 0 {
			b.Fatal("no heap samples")
		}
		_ = figures.HeapTimelineFigure("h2o", samples)
	}
}

// BenchmarkAppendixLatencyPerBenchmark regenerates one appendix latency
// figure (kafka).
func BenchmarkAppendixLatencyPerBenchmark(b *testing.B) {
	opt := harness.Options{Events: 1500, Iterations: 2, Seed: 42}
	for i := 0; i < b.N; i++ {
		results, err := harness.Latency(workload.Kafka, []float64{2, 6}, opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = figures.LatencyFigure(results)
		_ = figures.MMUFigure(results)
	}
}

// BenchmarkSection64ArchSensitivity regenerates the Section 6.4 analysis:
// top-down breakdowns and machine-swap sensitivities for the IPC extremes.
func BenchmarkSection64ArchSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"biojava", "jython", "xalan", "h2o"} {
			d, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			td := d.Arch.Analyze(Zen4)
			if td.IPC <= 0 {
				b.Fatal("bad IPC")
			}
			_ = d.Arch.TimeFactor(Zen4.WithSlowDRAM())
			_ = d.Arch.TimeFactor(Zen4.WithLLCScale(1.0 / 16))
		}
	}
}

// BenchmarkSection42MinheapSearch regenerates the Recommendation H2
// prerequisite: per-benchmark minimum-heap identification.
func BenchmarkSection42MinheapSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		min, err := harness.MinHeapMB(workload.Fop, harness.Options{Events: 200, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(min, "fop-minheap-MB")
	}
}

// BenchmarkSection43WarmupCurve regenerates the Recommendation P1 warmup
// measurement for the suite's slowest-warming workload.
func BenchmarkSection43WarmupCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(workload.Jython, workload.RunConfig{
			HeapMB: 2 * workload.Jython.MinHeapMB, Collector: gc.G1,
			Iterations: 12, Events: 300, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		first := res.Iterations[0].WallNS
		last := res.Last().WallNS
		if last >= first {
			b.Fatal("no warmup visible")
		}
		b.ReportMetric(first/last, "iter0-over-steady")
	}
}

// --- Ablations (DESIGN.md A1-A4) ---

// BenchmarkAblationSmoothing sweeps the metered-latency smoothing window
// from 1ms to full smoothing (A1): tail latency grows monotonically with
// the window, simple latency is the window->0 limit.
func BenchmarkAblationSmoothing(b *testing.B) {
	res, err := workload.Run(workload.Lusearch, workload.RunConfig{
		HeapMB: 1.5 * workload.Lusearch.MinHeapMB, Collector: gc.Serial,
		Iterations: 2, Events: 2000, Seed: 42, RecordLatency: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := make([]latency.Event, len(res.Events))
	for i, e := range res.Events {
		events[i] = latency.Event{Start: e.Start, End: e.End}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := 0.0
		for _, w := range []float64{1e6, 1e7, 1e8, 1e9, latency.FullSmoothing} {
			d := latency.NewDistribution(latency.Metered(events, w))
			max := d.Max()
			// The full-smoothing estimator (uniform ramp) differs slightly
			// from the windowed sliding average, so allow 2% slack on the
			// monotonicity check.
			if max < prev*0.98 {
				b.Fatalf("tail fell as smoothing grew: %v -> %v", prev, max)
			}
			prev = max
		}
		b.ReportMetric(prev/1e6, "full-smoothing-max-ms")
	}
}

// BenchmarkAblationLBOBaseline contrasts the distilled LBO baseline with a
// naive fastest-total baseline (A2): the naive baseline hides overhead.
func BenchmarkAblationLBOBaseline(b *testing.B) {
	grid, _, err := harness.LBOGrid(workload.H2o, benchSweep())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distilled, err := grid.BaselineCPU()
		if err != nil {
			b.Fatal(err)
		}
		naive := math.Inf(1)
		for _, m := range grid.Cells {
			if m.Completed && m.CPUNS < naive {
				naive = m.CPUNS
			}
		}
		if naive <= distilled {
			b.Fatal("naive baseline should exceed the distilled one")
		}
		b.ReportMetric(naive/distilled, "hidden-overhead-x")
	}
}

// BenchmarkAblationPacer runs Shenandoah with and without its pacer on the
// suite's heaviest allocator (A3): pacing trades wall clock for fewer
// degenerate collections.
func BenchmarkAblationPacer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(pacer bool) (wall, stall float64) {
			p := gc.Shenandoah.Params(Zen4.Cores)
			p.Pacer = pacer
			res, err := workload.Run(workload.Lusearch, workload.RunConfig{
				HeapMB: 2 * workload.Lusearch.MinHeapMB, Collector: gc.Shenandoah,
				CollectorParams: &p, Iterations: 2, Events: 500, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Last().WallNS, res.Log.StallNS
		}
		wallOn, stallOn := run(true)
		wallOff, stallOff := run(false)
		if stallOn <= stallOff {
			b.Fatal("pacer produced no allocation stalls")
		}
		b.ReportMetric(wallOn/wallOff, "pacer-wall-ratio")
	}
}

// BenchmarkAblationGenerational contrasts ZGC with the Generational ZGC
// extension on a young-garbage-heavy workload (A4).
func BenchmarkAblationGenerational(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(kind gc.Kind) float64 {
			res, err := workload.Run(workload.H2o, workload.RunConfig{
				HeapMB: 3 * workload.H2o.MinHeapMB, Collector: kind,
				Iterations: 2, Events: 400, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.GCCPUNS
		}
		zgc := run(gc.ZGC)
		gen := run(gc.GenZGC)
		b.ReportMetric(zgc/gen, "zgc-over-genzgc-gccpu")
	}
}

// BenchmarkFullSuite measures whole-suite parallel execution end to end: a
// reduced representative plan — four benchmarks x three collectors x three
// heap factors of LBO plus latency sweeps for the latency-sensitive pair —
// submitted up front as one batch of job DAGs (min-heap anchors first, grid
// cells as anchors resolve) and collected in deterministic merge order. The
// workers=1 and workers=8 variants bound the scaling headroom: on a
// multi-core host the 8-worker run should finish several times faster,
// while merged results stay byte-identical (the harness golden pins that).
// The workers=NumCPU variant (literal name, so the recorded baseline is
// comparable across hosts) measures the saturated point on whatever the
// host offers. `make bench` records all three, benchdiff -out derives the
// parallel-efficiency ratio (workers=1 ns ÷ workers=8 ns), and `make
// bench-scaling` gates on it — so scaling regressions fail the gate, not
// just per-op times.
func BenchmarkFullSuite(b *testing.B) {
	bs := []*workload.Descriptor{
		workload.Fop, workload.Lusearch, workload.Cassandra, workload.H2,
	}
	variants := []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=8", 8},
		{"workers=NumCPU", runtime.NumCPU()},
	}
	for _, v := range variants {
		workers := v.workers
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := NewEngine(EngineOptions{Workers: workers})
				opt := harness.Options{
					Collectors:  []gc.Kind{gc.Serial, gc.G1, gc.Shenandoah},
					HeapFactors: []float64{1.5, 2, 3},
					Invocations: 2,
					Iterations:  2,
					Events:      300,
					Seed:        42,
					Engine:      eng,
				}
				// Submit the whole plan before collecting anything.
				suite := harness.SubmitSuiteLBO(bs, opt)
				var lats []*harness.PendingLatency
				for _, d := range bs {
					if d.LatencySensitive {
						lats = append(lats, harness.SubmitLatency(d, []float64{2}, opt))
					}
				}
				if _, _, err := suite.Wait(); err != nil {
					b.Fatal(err)
				}
				for _, p := range lats {
					if _, err := p.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineWarmCache measures the experiment engine's resume path: an
// LBO grid re-aggregated entirely from the content-addressed result cache.
// The timed loop performs zero simulator invocations — it is the cost of a
// resumed (or re-rendered) sweep, dominated by cache reads and aggregation.
// fop is a batch benchmark, whose records carry only the GC log; h2 is
// latency-sensitive, so its records also carry every event's latency.
func BenchmarkEngineWarmCache(b *testing.B) {
	for _, d := range []*workload.Descriptor{workload.Fop, workload.H2} {
		b.Run(d.Name, func(b *testing.B) {
			dir := b.TempDir()
			warm, err := OpenResultCache(dir, CacheReadWrite)
			if err != nil {
				b.Fatal(err)
			}
			seed := NewEngine(EngineOptions{Cache: warm})
			opt := benchSweep()
			opt.Engine = seed
			if _, _, err := MeasureLBO(d, opt); err != nil {
				b.Fatal(err)
			}
			if err := errors.Join(seed.Close(), warm.Close()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache, err := OpenResultCache(dir, CacheReadWrite)
				if err != nil {
					b.Fatal(err)
				}
				eng := NewEngine(EngineOptions{Cache: cache})
				opt := benchSweep()
				opt.Engine = eng
				if _, _, err := MeasureLBO(d, opt); err != nil {
					b.Fatal(err)
				}
				if s := eng.Stats(); s.Executed != 0 {
					b.Fatalf("warm re-run executed %d invocations, want 0", s.Executed)
				}
				if err := errors.Join(eng.Close(), cache.Close()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineColdCache is BenchmarkEngineWarmCache's cold counterpart:
// the same fop LBO grid, every invocation simulated and written to a
// write-only cache. Engine.Close and Cache.Close sit inside the timed loop,
// so each op pays for the whole write-behind drain — every record encoded
// and on disk — not just the enqueue.
func BenchmarkEngineColdCache(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		cache, err := OpenResultCache(dir, CacheWriteOnly)
		if err != nil {
			b.Fatal(err)
		}
		eng := NewEngine(EngineOptions{Cache: cache})
		opt := benchSweep()
		opt.Engine = eng
		if _, _, err := MeasureLBO(workload.Fop, opt); err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		if err := cache.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunInvocation measures the invocation hot path end to end: one
// complete closed-loop run (2 iterations x 1000 events) per collector, with
// -benchmem. The pooled continuation frames and the collector's
// bump-allocation fast path make the per-event path allocation-free, so
// allocs/op here is the constant per-run setup (engine, threads, heap,
// result buffers) independent of event count — TestRunInvocationMarginalAllocs
// locks that property, and `make bench-gate` diffs these numbers against the
// committed BENCH_sim.json baseline.
func BenchmarkRunInvocation(b *testing.B) {
	for _, kind := range gc.AllKinds {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(workload.Spring, workload.RunConfig{
					HeapMB: 2 * workload.Spring.MinHeapMB, Collector: kind,
					Iterations: 2, Events: 1000, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkRunInvocationOpenLoop is the open-loop counterpart: scheduled
// arrivals, queueing, and the shared arrival timer callback.
func BenchmarkRunInvocationOpenLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := workload.Run(workload.Spring, workload.RunConfig{
			HeapMB: 2 * workload.Spring.MinHeapMB, Collector: gc.G1,
			Iterations: 2, Events: 1000, Seed: 42,
			OpenLoop: true, OpenLoopHeadroom: 1.5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunInvocationMarginalAllocs pins the hot path's allocation discipline:
// growing a run by 2000 events must cost (near) zero additional Go
// allocations, because event frames recycle through the runner's free list
// and the collector's fast path allocates nothing. The GC log grows in
// pooled scratch and is copied out once, so it adds no allocations per
// event either; the small slack covers what the Go runtime itself may do
// during a longer run, such as a pool scratch lost to a collection and
// regrown.
func TestRunInvocationMarginalAllocs(t *testing.T) {
	run := func(events int) float64 {
		return testing.AllocsPerRun(3, func() {
			_, err := workload.Run(workload.Spring, workload.RunConfig{
				HeapMB: 2 * workload.Spring.MinHeapMB, Collector: gc.G1,
				Iterations: 2, Events: events, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(500)
	big := run(2500)
	marginal := (big - base) / 2000
	if marginal > 0.5 {
		t.Errorf("marginal cost = %.2f allocs/event (runs: %v -> %v), want ~0 — "+
			"the hot path is allocating per event again", marginal, base, big)
	}
}

// BenchmarkSimulatorThroughput measures the substrate itself: simulated
// events per second of host time for a typical configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(workload.Spring, workload.RunConfig{
			HeapMB: 2 * workload.Spring.MinHeapMB, Collector: gc.G1,
			Iterations: 1, Events: 1000, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkAblationOpenLoopVsMetered validates the paper's metered-latency
// approximation against ground truth (A5): the same workload is run
// open-loop (real scheduled arrivals with queueing — what metered latency
// models) and closed-loop; the metered distribution should track the
// open-loop one far better than simple latency does at the tail.
func BenchmarkAblationOpenLoopVsMetered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(open bool) []latency.Event {
			res, err := workload.Run(workload.Spring, workload.RunConfig{
				HeapMB: 2 * workload.Spring.MinHeapMB, Collector: gc.G1,
				Iterations: 2, Events: 2500, Seed: 42, OpenLoop: open,
				// Drive at ~50% of nominal rate so the open system is below
				// saturation, as a real load test would be (an overloaded
				// open system diverges regardless of GC — queueing theory,
				// not collector behaviour).
				OpenLoopHeadroom: 2.0,
			})
			if err != nil {
				b.Fatal(err)
			}
			evs := make([]latency.Event, len(res.Events))
			for j, e := range res.Events {
				evs[j] = latency.Event{Start: e.Start, End: e.End}
			}
			return evs
		}
		openEvents := run(true)
		closedEvents := run(false)

		truth := latency.NewDistribution(latency.Simple(openEvents)).Percentile(99.9)
		simple := latency.NewDistribution(latency.Simple(closedEvents)).Percentile(99.9)
		metered := latency.NewDistribution(
			latency.Metered(closedEvents, latency.FullSmoothing)).Percentile(99.9)

		simpleErr := math.Abs(simple - truth)
		meteredErr := math.Abs(metered - truth)
		b.ReportMetric(truth/1e6, "openloop-p99.9-ms")
		b.ReportMetric(metered/1e6, "metered-p99.9-ms")
		b.ReportMetric(simple/1e6, "simple-p99.9-ms")
		if meteredErr > simpleErr && metered < simple {
			// Metered should move the closed-loop estimate *toward* the
			// open-loop truth, never away below simple.
			b.Fatalf("metered (%v) strayed further from truth (%v) than simple (%v)",
				metered, truth, simple)
		}
	}
}
