// Command lbo reproduces the paper's lower-bound-overhead experiments:
// Figure 1 (cross-suite geometric means), Figure 5 (cassandra and lusearch)
// and the per-benchmark appendix figures.
//
// Usage:
//
//	lbo -geomean                       # Figure 1 over the whole suite
//	lbo -bench cassandra,lusearch      # Figure 5
//	lbo -bench h2 -factors 1,2,4,6     # custom sweep
//	lbo -geomean -out results/         # also write CSV data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"chopin/internal/exper"
	"chopin/internal/figures"
	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/lbo"
	"chopin/internal/persist"
	"chopin/internal/report"
)

func main() {
	var (
		benchList   = flag.String("bench", "", "comma-separated benchmarks (default: whole suite)")
		geomean     = flag.Bool("geomean", false, "print the Figure 1 cross-suite geomean curves")
		factorsFlag = flag.String("factors", "", "comma-separated heap factors (default 1,1.25,1.5,2,2.5,3,4,5,6)")
		gcsFlag     = flag.String("collectors", "", "comma-separated collectors (default: the paper's five)")
		invocations = flag.Int("invocations", 3, "invocations per configuration (paper: 10)")
		iterations  = flag.Int("iterations", 3, "iterations per invocation; last is timed")
		events      = flag.Int("events", 0, "events per iteration (0 = workload default / 4)")
		seed        = flag.Uint64("seed", 42, "deterministic seed")
		outDir      = flag.String("out", "", "directory for CSV output (optional)")
		jsonOut     = flag.Bool("json", false, "also write JSON archives next to the CSVs")
	)
	var cli exper.CLI
	cli.RegisterFlags(flag.CommandLine, "")
	flag.Parse()

	eng, err := cli.Build(os.Stderr, "lbo: ")
	check(err)
	defer cli.CloseOrWarn(os.Stderr, "lbo: ")
	defer func() { fmt.Fprintf(os.Stderr, "lbo: %s\n", exper.Summary(eng.Stats())) }()

	opt := harness.Options{
		Invocations: *invocations,
		Iterations:  *iterations,
		Events:      *events,
		Seed:        *seed,
		Engine:      eng,
	}
	opt.HeapFactors, err = exper.ParseFactors("-factors", *factorsFlag)
	check(err)
	opt.Collectors, err = exper.ParseCollectors(*gcsFlag)
	check(err)

	ds, err := exper.SelectBenchmarks(*benchList)
	check(err)

	if *geomean {
		fmt.Fprintf(os.Stderr, "lbo: sweeping %d benchmarks x %d collectors x %d heap factors, %d invocations each\n",
			len(ds), pick(len(opt.Collectors), len(gc.Kinds)),
			pick(len(opt.HeapFactors), len(harness.DefaultHeapFactors)), *invocations)
		grids, pts, err := harness.SuiteLBO(ds, opt)
		check(err)
		names := collectorNames(opt)
		fmt.Print(figures.GeomeanFigure(pts, names))
		if *outDir != "" {
			check(writeGeomeanCSV(*outDir, pts))
			for _, g := range grids {
				check(writeGridCSV(*outDir, g))
			}
			if *jsonOut {
				check(persist.SaveGeomean(filepath.Join(*outDir, "figure1_geomean.json"), pts))
				for _, g := range grids {
					check(persist.SaveGrid(filepath.Join(*outDir, "lbo_"+g.Benchmark+".json"), g))
				}
			}
			fmt.Fprintf(os.Stderr, "lbo: CSV written to %s\n", *outDir)
		}
		return
	}

	// Submit every benchmark's sweep before collecting any: the engine sees
	// the whole batch at once, and output stays in benchmark order.
	pending := make([]*harness.PendingGrid, len(ds))
	for i, d := range ds {
		fmt.Fprintf(os.Stderr, "lbo: sweeping %s\n", d.Name)
		pending[i] = harness.SubmitLBOGrid(d, opt)
	}
	for i := range ds {
		grid, minMB, err := pending[i].Wait()
		check(err)
		out, err := figures.LBOFigure(grid, minMB)
		check(err)
		fmt.Println(out)
		if *outDir != "" {
			check(writeGridCSV(*outDir, grid))
			if *jsonOut {
				check(persist.SaveGrid(filepath.Join(*outDir, "lbo_"+grid.Benchmark+".json"), grid))
			}
		}
	}
}

func pick(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

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

func writeGeomeanCSV(dir string, pts []lbo.GeomeanPoint) error {
	t := report.NewTable("collector", "heap_factor", "wall_lbo", "cpu_lbo", "benchmarks", "complete")
	for _, p := range pts {
		t.AddRowf(p.Collector, p.HeapFactor, p.Wall, p.CPU, p.Benchmarks, p.Complete)
	}
	return writeCSV(filepath.Join(dir, "figure1_geomean.csv"), t)
}

func writeGridCSV(dir string, g *lbo.Grid) error {
	ovs, err := g.Overheads()
	if err != nil {
		return err
	}
	t := report.NewTable("benchmark", "collector", "heap_factor", "heap_mb",
		"completed", "wall_lbo", "cpu_lbo")
	for _, o := range ovs {
		t.AddRowf(g.Benchmark, o.Collector, o.HeapFactor, o.HeapMB, o.Completed, o.Wall, o.CPU)
	}
	return writeCSV(filepath.Join(dir, "lbo_"+g.Benchmark+".csv"), t)
}

func writeCSV(path string, t *report.Table) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t.CSV(f)
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbo: %v\n", err)
		os.Exit(1)
	}
}
