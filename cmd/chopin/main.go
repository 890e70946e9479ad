// Command chopin is the DaCapo-style benchmark runner: it executes one
// benchmark of the suite under a chosen collector, heap size and compiler
// configuration, and prints per-iteration timings, GC telemetry, latency
// percentiles for latency-sensitive workloads, and (with -p) the workload's
// nominal statistics.
//
// Usage:
//
//	chopin -bench lusearch -n 5 -gc G1 -heap 2x
//	chopin -bench h2 -gc ZGC -heap 1024 -events 2000
//	chopin -bench cassandra -minheap
//	chopin -bench jython -warmup
//	chopin -bench h2o -heaptrace
//	chopin -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"chopin/internal/exper"
	"chopin/internal/figures"
	"chopin/internal/gc"
	"chopin/internal/gclog"
	"chopin/internal/harness"
	"chopin/internal/jit"
	"chopin/internal/latency"
	"chopin/internal/nominal"
	"chopin/internal/report"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark to run (see -list)")
		list      = flag.Bool("list", false, "list the suite's benchmarks")
		n         = flag.Int("n", 5, "iterations; the last is timed")
		gcName    = flag.String("gc", "G1", "collector: Serial, Parallel, G1, Shenandoah, ZGC, GenZGC")
		heapSpec  = flag.String("heap", "2x", "heap size: '<mb>' or '<factor>x' of the measured minimum")
		events    = flag.Int("events", 0, "events per iteration (0 = workload default)")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		compiler  = flag.String("compiler", "tiered", "tiered, interpreter, forced-c2, worst-tier")
		size      = flag.String("size", "default", "input size: small, default, large, vlarge")
		shenMode  = flag.String("shenandoah-heuristic", "adaptive", "Shenandoah heuristic: adaptive, static, compact, aggressive")
		noCoops   = flag.Bool("no-compressed-oops", false, "disable compressed object pointers")
		minheap   = flag.Bool("minheap", false, "report the measured minimum heap and exit")
		printStat = flag.Bool("p", false, "print nominal statistics (quick characterization)")
		warmup    = flag.Bool("warmup", false, "print the warmup curve over -n iterations")
		heaptrace = flag.Bool("heaptrace", false, "print post-GC heap sizes over the timed iteration")
		printLog  = flag.Bool("gclog", false, "print the run's GC log in OpenJDK unified-logging style")
	)
	var cli exper.CLI
	cli.RegisterFlags(flag.CommandLine, "")
	flag.Parse()

	if *list {
		t := report.NewTable("benchmark", "class", "latency", "new", "threads", "minheap(MB)", "description")
		for _, d := range workload.All() {
			t.AddRowf(d.Name, d.Class.String(), d.LatencySensitive, d.NewInChopin,
				d.Threads, d.MinHeapMB, d.Description)
		}
		fmt.Print(t.String())
		return
	}
	if *benchName == "" {
		fail("missing -bench (or -list)")
	}
	d, err := workload.ByName(*benchName)
	if err != nil {
		fail("%v", err)
	}
	sz, err := workload.ParseSize(*size)
	if err != nil {
		fail("%v", err)
	}
	d = d.Scaled(sz)
	kind, err := gc.ParseKind(*gcName)
	if err != nil {
		fail("%v", err)
	}
	var paramsOverride *gc.Params
	if kind == gc.Shenandoah && *shenMode != "adaptive" {
		mode, err := gc.ParseShenandoahMode(*shenMode)
		if err != nil {
			fail("%v", err)
		}
		p := gc.ShenandoahParams(mode, 16)
		paramsOverride = &p
	}
	jc, err := parseCompiler(*compiler)
	if err != nil {
		fail("%v", err)
	}

	eng, err := cli.Build(os.Stderr, "chopin: ")
	check(err)
	defer cli.CloseOrWarn(os.Stderr, "chopin: ")
	opt := harness.Options{Events: *events, Seed: *seed, Engine: eng}

	if *printStat {
		c, err := nominal.Characterize(d, nominal.Options{
			Events: *events, Seed: *seed, SkipSizeVariants: true, Run: eng.Run,
		})
		check(err)
		table := nominal.BuildSuite([]*nominal.Characterization{c})
		out, err := figures.BenchmarkTable(table, d.Name)
		check(err)
		fmt.Printf("%s: %s\n(ranks/scores are against this benchmark alone; a runbms plan of type nominal ranks against the suite)\n\n%s",
			d.Name, d.Description, out)
		return
	}
	if *minheap {
		min, err := harness.MinHeapMB(d, opt)
		check(err)
		fmt.Printf("%s minimum heap (G1, default size): %.1f MB\n", d.Name, min)
		return
	}
	if *heaptrace {
		samples, err := harness.HeapTimeline(d, opt)
		check(err)
		fmt.Print(figures.HeapTimelineFigure(d.Name, samples))
		return
	}

	heapMB, err := resolveHeap(d, *heapSpec, opt)
	check(err)
	cfg := workload.RunConfig{
		HeapMB:                heapMB,
		Collector:             kind,
		CollectorParams:       paramsOverride,
		Compiler:              jc,
		Iterations:            *n,
		Events:                *events,
		Seed:                  *seed,
		DisableCompressedOops: *noCoops,
	}
	res, err := eng.Run(d, cfg)
	check(err)

	fmt.Printf("===== chopin %s: %s, %.0fMB heap, %d iterations =====\n",
		d.Name, kind, heapMB, *n)
	t := report.NewTable("iteration", "wall (ms)", "task clock (ms)", "alloc (MB)")
	for i, it := range res.Iterations {
		label := fmt.Sprintf("%d", i+1)
		if i == len(res.Iterations)-1 {
			label += " (timed)"
		}
		t.AddRowf(label, it.WallNS/1e6, it.CPUNS/1e6, it.Allocated/workload.MB)
	}
	fmt.Print(t.String())
	if *warmup {
		fmt.Println("\nwarmup: iteration wall times relative to best")
		best := res.Iterations[0].WallNS
		for _, it := range res.Iterations {
			if it.WallNS < best {
				best = it.WallNS
			}
		}
		for i, it := range res.Iterations {
			fmt.Printf("  iter %2d: %.3fx\n", i+1, it.WallNS/best)
		}
	}

	if *printLog {
		fmt.Println()
		fmt.Print(gclog.Format(res.Log, heapMB))
	}

	fmt.Printf("\nGC: %d young, %d full, %d concurrent, %d mixed, %d degenerate\n",
		res.Log.Count(trace.GCYoung), res.Log.Count(trace.GCFull),
		res.Log.Count(trace.GCConcurrent), res.Log.Count(trace.GCMixed),
		res.Log.Count(trace.GCDegenerate))
	fmt.Printf("GC: %.1fms total STW over %d pauses (max %.2fms), %.1fms GC CPU, %.1fms alloc stalls\n",
		res.Log.TotalPauseNS()/1e6, len(res.Log.Pauses), res.Log.MaxPauseNS()/1e6,
		res.GCCPUNS/1e6, res.Log.StallNS/1e6)

	if len(res.Events) > 0 {
		evs := make([]latency.Event, len(res.Events))
		for i, e := range res.Events {
			evs[i] = latency.Event{Start: e.Start, End: e.End}
		}
		fmt.Printf("\nlatency over %d events (ms):\n", len(evs))
		lt := report.NewTable("view", "p50", "p90", "p99", "p99.9", "max")
		for _, v := range []struct {
			name string
			vals []float64
		}{
			{"simple", latency.Simple(evs)},
			{"metered (100ms)", latency.Metered(evs, 100e6)},
			{"metered (full)", latency.Metered(evs, latency.FullSmoothing)},
		} {
			dist := latency.NewDistribution(v.vals)
			lt.AddRowf(v.name, dist.Percentile(50)/1e6, dist.Percentile(90)/1e6,
				dist.Percentile(99)/1e6, dist.Percentile(99.9)/1e6, dist.Max()/1e6)
		}
		fmt.Print(lt.String())
	}
}

// resolveHeap parses "<mb>" or "<factor>x"; factors are multiples of the
// measured minimum heap per Recommendation H2.
func resolveHeap(d *workload.Descriptor, spec string, opt harness.Options) (float64, error) {
	if strings.HasSuffix(spec, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(spec, "x"), 64)
		if err != nil {
			return 0, fmt.Errorf("bad heap factor %q", spec)
		}
		min, err := harness.MinHeapMB(d, opt)
		if err != nil {
			return 0, err
		}
		return min * f, nil
	}
	mb, err := strconv.ParseFloat(spec, 64)
	if err != nil {
		return 0, fmt.Errorf("bad heap size %q (want '<mb>' or '<factor>x')", spec)
	}
	return mb, nil
}

func parseCompiler(s string) (jit.Config, error) {
	switch s {
	case "tiered":
		return jit.Tiered, nil
	case "interpreter":
		return jit.InterpreterOnly, nil
	case "forced-c2":
		return jit.ForcedC2, nil
	case "worst-tier":
		return jit.WorstTier, nil
	}
	return 0, fmt.Errorf("unknown compiler config %q", s)
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "chopin: "+format+"\n", args...)
	os.Exit(1)
}
