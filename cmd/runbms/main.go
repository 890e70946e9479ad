// Command runbms is the experiment runner (the running-ng analogue from the
// paper's artifact) and the one producer of the paper's figures and tables:
// it executes a JSON experiment plan and writes rendered figures, tables and
// CSV data into a results directory.
//
// Usage:
//
//	runbms -plan experiments/results.json -out results/    # every file under results/
//	runbms -plan experiments/kick-the-tires.json -out out/
//	runbms -plan experiments/lbo.json -out out/ -progress  # per-job events
//	runbms -plan experiments/lbo.json -out out/ -cold      # ignore cached results
//
// Completed invocations persist in a content-addressed cache (default
// <out>/cache), so re-running a plan — after an interrupt, a crash, or an
// edit that adds experiments — re-executes only what is missing. A cache
// entry is keyed by the job's parameters and by workload.ModelDigest, the
// digest of the workload golden fixtures, so a model change that moves a
// golden invalidates every entry. Only after a model change that moves no
// golden, re-run with -cold (or a fresh -cache) to recompute.
//
// A plan looks like:
//
//	{
//	  "experiments": [
//	    {"name": "lbo", "type": "lbo", "benchmarks": ["cassandra","lusearch"],
//	     "heap_factors": [1,2,3,4,5,6], "invocations": 3},
//	    {"name": "latency", "type": "latency", "benchmarks": ["cassandra"],
//	     "heap_factors": [2,6]},
//	    {"name": "heap", "type": "heaptrace", "benchmarks": ["h2o"]}
//	  ]
//	}
//
// Omitting "benchmarks" selects the whole suite; omitting collectors or
// factors selects the paper's defaults. Each type writes, for an experiment
// called <name>:
//
//	lbo          <name>_geomean.{txt,csv} (Figure 1) and <name>_<bench>.{txt,csv}
//	latency      <name>_<bench>.txt: latency percentiles, pauses and MMU (Figures 2, 3, 6)
//	heaptrace    <name>_<bench>.txt: the post-GC heap-size timeline
//	pca          <name>_pca.txt: Figure 4 and the most determinant metrics
//	nominal      <name>_table1.txt, <name>_table2.txt, <name>_<bench>.txt
//	             (Tables 1-3) and <name>_arch.txt (Section 6.4)
//	calibration  <name>.txt: measured nominal statistics vs published targets
//	appendix     <name>_<bench>.txt: one Appendix B chapter per benchmark
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"chopin/internal/exper"
	"chopin/internal/figures"
	"chopin/internal/harness"
	"chopin/internal/nominal"
	"chopin/internal/workload"
)

func main() {
	var (
		planPath = flag.String("plan", "", "experiment plan (JSON)")
		outDir   = flag.String("out", "results", "output directory")
	)
	var cli exper.CLI
	cli.RegisterFlags(flag.CommandLine, "")
	flag.Parse()
	if *planPath == "" {
		fail("missing -plan")
	}
	if err := run(*planPath, *outDir, &cli); err != nil {
		fail("%v", err)
	}
}

// run executes the plan at planPath. The whole plan is decoded and
// validated before the engine starts, so a bad plan fails before any of its
// jobs run; once the engine runs, every return path closes it, so queued
// cache writes reach disk.
func run(planPath, outDir string, cli *exper.CLI) error {
	raw, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	plan, err := decodePlan(raw)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// Results cache under the output directory by default, so a re-run of
	// the same plan — after a crash, an interrupt, or a plan edit — skips
	// everything already computed.
	if cli.CacheDir == "" {
		cli.CacheDir = filepath.Join(outDir, "cache")
	}
	eng, err := cli.Build(os.Stderr, "runbms: ")
	if err != nil {
		return err
	}
	defer cli.CloseOrWarn(os.Stderr, "runbms: ")

	// One engine for the whole plan: a single worker pool bounds
	// parallelism across experiments, and min-heap measurements shared by
	// several experiments run once. The entire plan is submitted as one
	// batch of jobs before anything is collected, so the pool sees every
	// experiment at once and host cores stay saturated from the first
	// min-heap probe to the last sweep cell; results are then collected and
	// rendered in plan order, so output is deterministic whatever the
	// execution interleaving.
	collects := make([]func() error, len(plan.Experiments))
	for i, exp := range plan.Experiments {
		fmt.Fprintf(os.Stderr, "runbms: submitting experiment %q (%s)\n", exp.Name, exp.Type)
		collect, err := submit(eng, exp, outDir)
		if err != nil {
			return err
		}
		collects[i] = collect
	}
	for i, exp := range plan.Experiments {
		if err := collects[i](); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "runbms: experiment %q done\n", exp.Name)
	}
	fmt.Fprintf(os.Stderr, "runbms: %s\n", exper.Summary(eng.Stats()))
	fmt.Fprintf(os.Stderr, "runbms: results in %s\n", outDir)
	return nil
}

// submit registers one experiment's jobs with the engine and returns a
// collect function that waits for them and renders the experiment's output.
// All submission happens before submit returns, so calling it for every
// experiment of a plan builds the plan's whole job DAG up front.
func submit(eng *exper.Engine, exp Experiment, outDir string) (func() error, error) {
	ds := exp.descs
	opt := harness.Options{
		Collectors:  exp.kinds,
		HeapFactors: exp.HeapFactors,
		Invocations: exp.Invocations,
		Iterations:  exp.Iterations,
		Events:      exp.Events,
		Seed:        exp.Seed,
		Engine:      eng,
	}
	// Characterizations skip the size-variant min-heap searches, the most
	// expensive part, and take the plan's invocations as the sample size
	// of their invocation-series statistics.
	nopt := nominal.Options{
		Events:           exp.Events,
		Invocations:      exp.Invocations,
		Seed:             exp.Seed,
		SkipSizeVariants: true,
		Run:              eng.Run,
	}
	w := writer{dir: outDir, prefix: exp.Name}

	switch exp.Type {
	case "lbo":
		suite := harness.SubmitSuiteLBO(ds, opt)
		return func() error {
			grids, pts, err := suite.Wait()
			if err != nil {
				return err
			}
			w.file("_geomean.txt", figures.GeomeanFigure(pts, collectorNames(opt)))
			w.file("_geomean.csv", geomeanCSV(pts))
			for _, g := range grids {
				out, err := figures.LBOFigure(g, gridMinHeap(g))
				if err != nil {
					return err
				}
				csv, err := gridCSV(g)
				if err != nil {
					return err
				}
				w.file("_"+g.Benchmark+".txt", out)
				w.file("_"+g.Benchmark+".csv", csv)
			}
			return w.err
		}, nil
	case "latency":
		pending := make([]*harness.PendingLatency, len(ds))
		for i, d := range ds {
			pending[i] = harness.SubmitLatency(d, exp.HeapFactors, opt)
		}
		return func() error {
			for i, d := range ds {
				results, err := pending[i].Wait()
				if err != nil {
					return err
				}
				w.file("_"+d.Name+".txt", figures.LatencyFigure(results)+
					"GC pauses versus user-experienced latency (Recommendation L1):\n"+
					figures.PauseSummary(results)+
					"\nminimum mutator utilization (Figure 2 methodology):\n"+
					figures.MMUFigure(results))
			}
			return w.err
		}, nil
	case "heaptrace":
		timelines := startHeapTimelines(ds, opt)
		return func() error {
			for i, d := range ds {
				samples, err := timelines[i]()
				if err != nil {
					return err
				}
				w.file("_"+d.Name+".txt", figures.HeapTimelineFigure(d.Name, samples))
			}
			return w.err
		}, nil
	case "pca", "nominal", "calibration":
		chars := start(func() ([]*nominal.Characterization, error) {
			return nominal.CharacterizeSuite(ds, nopt)
		})
		return func() error {
			cs, err := chars()
			if err != nil {
				return err
			}
			table := nominal.BuildSuite(cs)
			switch exp.Type {
			case "pca":
				out, err := pcaReport(table)
				if err != nil {
					return err
				}
				w.file("_pca.txt", out)
			case "nominal":
				w.file("_table1.txt", figures.Table1())
				w.file("_table2.txt",
					"Table 2: the twelve most determinant nominal statistics (rank: value)\n"+
						figures.Table2(table))
				for _, d := range ds {
					out, err := figures.BenchmarkTable(table, d.Name)
					if err != nil {
						return err
					}
					w.file("_"+d.Name+".txt", fmt.Sprintf("%s: %s\n\n%s", d.Name, d.Description, out))
				}
				out, err := archAnalysis()
				if err != nil {
					return err
				}
				w.file("_arch.txt", out)
			case "calibration":
				w.file(".txt", calibrationTable(ds, cs))
			}
			return w.err
		}, nil
	case "appendix":
		// The plan's invocations size the LBO grids; the characterization
		// behind the nominal-statistics section keeps its default sample.
		nopt.Invocations = 0
		chars := start(func() ([]*nominal.Characterization, error) {
			return nominal.CharacterizeSuite(ds, nopt)
		})
		grids := make([]*harness.PendingGrid, len(ds))
		latencies := make([]*harness.PendingLatency, len(ds))
		for i, d := range ds {
			grids[i] = harness.SubmitLBOGrid(d, opt)
			if d.LatencySensitive {
				latencies[i] = harness.SubmitLatency(d, []float64{2, 6}, opt)
			}
		}
		timelines := startHeapTimelines(ds, opt)
		return func() error {
			cs, err := chars()
			if err != nil {
				return err
			}
			table := nominal.BuildSuite(cs)
			for i, d := range ds {
				out, err := appendixChapter(d, table, grids[i], timelines[i], latencies[i])
				if err != nil {
					return err
				}
				w.file("_"+d.Name+".txt", out)
			}
			return w.err
		}, nil
	}
	return nil, fmt.Errorf("unknown experiment type %q", exp.Type)
}

// start runs f on its own goroutine now and returns a function that waits
// for its result, so an experiment's orchestration chains (characterizations,
// heap timelines) submit their engine jobs before anything is collected.
func start[T any](f func() (T, error)) func() (T, error) {
	var (
		v    T
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		v, err = f()
	}()
	return func() (T, error) {
		<-done
		return v, err
	}
}

// startHeapTimelines starts one heap timeline per benchmark: each is a
// two-job chain (min-heap anchor, one trace run).
func startHeapTimelines(ds []*workload.Descriptor, opt harness.Options) []func() ([]harness.HeapSample, error) {
	waits := make([]func() ([]harness.HeapSample, error), len(ds))
	for i, d := range ds {
		waits[i] = start(func() ([]harness.HeapSample, error) { return harness.HeapTimeline(d, opt) })
	}
	return waits
}

// writer writes an experiment's files, each named after the experiment,
// and keeps the first write error.
type writer struct {
	dir, prefix string
	err         error
}

func (w *writer) file(suffix, body string) {
	if w.err == nil {
		w.err = os.WriteFile(filepath.Join(w.dir, w.prefix+suffix), []byte(body), 0o644)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "runbms: "+format+"\n", args...)
	os.Exit(1)
}
