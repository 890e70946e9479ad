// Command runbms is the experiment runner (the running-ng analogue from the
// paper's artifact): it executes a JSON experiment plan — suites of LBO
// sweeps, latency experiments and heap traces — and writes rendered figures
// and CSV data into a results directory.
//
// Usage:
//
//	runbms -plan experiments/lbo.json -out results/
//	runbms -plan experiments/kick-the-tires.json -out results/
//	runbms -plan experiments/lbo.json -out results/ -progress   # per-job events
//	runbms -plan experiments/lbo.json -out results/ -cold       # ignore cached results
//
// Completed invocations persist in a content-addressed cache (default
// <out>/cache), so re-running a plan — after an interrupt, a crash, or an
// edit that adds experiments — re-executes only what is missing.
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
// factors selects the paper's defaults.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"chopin/internal/exper"
	"chopin/internal/figures"
	"chopin/internal/gc"
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

	// One engine for the whole plan: a single work-stealing pool bounds
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

	switch exp.Type {
	case "lbo":
		suite := harness.SubmitSuiteLBO(ds, opt)
		return func() error {
			grids, pts, err := suite.Wait()
			if err != nil {
				return err
			}
			var names []string
			for _, k := range optCollectors(opt) {
				names = append(names, k.String())
			}
			if err := writeFile(outDir, exp.Name+"_geomean.txt",
				figures.GeomeanFigure(pts, names)); err != nil {
				return err
			}
			for _, g := range grids {
				min := 0.0
				for _, c := range g.Cells {
					if c.HeapFactor == 1 || min == 0 {
						min = c.HeapMB / c.HeapFactor
					}
				}
				out, err := figures.LBOFigure(g, min)
				if err != nil {
					return err
				}
				if err := writeFile(outDir, exp.Name+"_"+g.Benchmark+".txt", out); err != nil {
					return err
				}
			}
			return nil
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
				body := figures.LatencyFigure(results) + "\n" +
					figures.PauseSummary(results) + "\n" + figures.MMUFigure(results)
				if err := writeFile(outDir, exp.Name+"_"+d.Name+".txt", body); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case "heaptrace":
		// HeapTimeline is a two-job chain (min-heap anchor, one trace run);
		// one orchestration goroutine per benchmark submits them all now.
		samples := make([][]harness.HeapSample, len(ds))
		errs := make([]error, len(ds))
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(1)
			go func(i int, d *workload.Descriptor) {
				defer wg.Done()
				samples[i], errs[i] = harness.HeapTimeline(d, opt)
			}(i, d)
		}
		return func() error {
			wg.Wait()
			for i, d := range ds {
				if errs[i] != nil {
					return errs[i]
				}
				if err := writeFile(outDir, exp.Name+"_"+d.Name+".txt",
					figures.HeapTimelineFigure(d.Name, samples[i])); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case "pca", "nominal":
		// Characterizations are independent per benchmark: run them all
		// concurrently over the shared engine (each one's probes are engine
		// jobs), collect in suite order.
		chars := make([]*nominal.Characterization, len(ds))
		errs := make([]error, len(ds))
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(1)
			go func(i int, d *workload.Descriptor) {
				defer wg.Done()
				chars[i], errs[i] = nominal.Characterize(d, nominal.Options{
					Events: exp.Events, Seed: exp.Seed, SkipSizeVariants: true, Run: eng.Run,
				})
			}(i, d)
		}
		return func() error {
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			table := nominal.BuildSuite(chars)
			if exp.Type == "pca" {
				out, err := figures.PCAFigure(table)
				if err != nil {
					return err
				}
				return writeFile(outDir, exp.Name+"_pca.txt", out)
			}
			if err := writeFile(outDir, exp.Name+"_table2.txt", figures.Table2(table)); err != nil {
				return err
			}
			for _, d := range ds {
				out, err := figures.BenchmarkTable(table, d.Name)
				if err != nil {
					return err
				}
				if err := writeFile(outDir, exp.Name+"_"+d.Name+".txt", out); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown experiment type %q", exp.Type)
}

func optCollectors(opt harness.Options) []gc.Kind {
	if opt.Collectors != nil {
		return opt.Collectors
	}
	return gc.Kinds
}

func writeFile(dir, name, body string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "runbms: "+format+"\n", args...)
	os.Exit(1)
}
