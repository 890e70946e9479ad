// Command latency reproduces the paper's user-experienced latency
// experiments: Figure 3 (cassandra), Figure 6 (h2) and the appendix latency
// figures, reporting simple latency and metered latency (100ms and full
// smoothing) percentile distributions for each collector at 2x and 6x heaps,
// plus MMU curves and the pause-vs-latency contrast behind Recommendation L1.
//
// Usage:
//
//	latency -bench cassandra             # Figure 3
//	latency -bench h2                    # Figure 6
//	latency -bench kafka -factors 2,4,6
//	latency -bench lusearch -mmu
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"chopin/internal/exper"
	"chopin/internal/figures"
	"chopin/internal/harness"
	"chopin/internal/workload"
)

func main() {
	var (
		benchName   = flag.String("bench", "cassandra", "latency-sensitive benchmark")
		factorsFlag = flag.String("factors", "2,6", "comma-separated heap factors")
		gcsFlag     = flag.String("collectors", "", "comma-separated collectors (default: the paper's five)")
		events      = flag.Int("events", 0, "events per iteration (0 = workload default)")
		iterations  = flag.Int("iterations", 3, "iterations; the last is measured")
		seed        = flag.Uint64("seed", 42, "deterministic seed")
		mmu         = flag.Bool("mmu", false, "also print minimum mutator utilization curves")
		jops        = flag.Bool("jops", false, "also print SPECjbb-style critical-jOPS scores")
		openLoop    = flag.Bool("open", false, "open-loop mode: scheduled arrivals with queueing (latency from arrival)")
		headroom    = flag.Float64("headroom", 2.0, "open-loop arrival-interval stretch (2.0 = half the nominal rate)")
		csvDir      = flag.String("csv", "", "directory for raw per-event latency CSVs (as the DaCapo -latency-csv option)")
	)
	var cli exper.CLI
	cli.RegisterFlags(flag.CommandLine, "")
	flag.Parse()

	d, err := workload.ByName(*benchName)
	check(err)
	if !d.LatencySensitive {
		fmt.Fprintf(os.Stderr, "latency: note: %s is not one of the nine latency-sensitive workloads; timing events anyway\n", d.Name)
	}

	eng, err := cli.Build(os.Stderr, "latency: ")
	check(err)
	defer cli.CloseOrWarn(os.Stderr, "latency: ")

	factors, err := exper.ParseFactors("-factors", *factorsFlag)
	check(err)
	opt := harness.Options{
		Events:     *events,
		Iterations: *iterations,
		Seed:       *seed,
		Engine:     eng,
	}
	opt.Collectors, err = exper.ParseCollectors(*gcsFlag)
	check(err)
	if opt.Events == 0 {
		// Latency distributions need tail resolution: use the workload's
		// full default event count rather than the sweep-scaled quarter.
		opt.Events = d.Events
	}

	fmt.Fprintf(os.Stderr, "latency: running %s at %v x minheap\n", d.Name, factors)
	// The sweep is one job DAG: the min-heap anchor and, as soon as it
	// resolves, every (collector, factor) cell as one batch.
	var pending *harness.PendingLatency
	if *openLoop {
		pending = harness.SubmitLatencyOpenLoop(d, factors, *headroom, opt)
	} else {
		pending = harness.SubmitLatency(d, factors, opt)
	}
	results, err := pending.Wait()
	check(err)

	if *csvDir != "" {
		check(os.MkdirAll(*csvDir, 0o755))
		for _, r := range results {
			if !r.Completed {
				continue
			}
			name := fmt.Sprintf("%s_%s_%gx.csv", d.Name, r.Collector, r.HeapFactor)
			f, err := os.Create(filepath.Join(*csvDir, name))
			check(err)
			fmt.Fprintln(f, "start_ns,end_ns,simple_latency_ns")
			for _, e := range r.Events {
				fmt.Fprintf(f, "%d,%d,%d\n", e.Start, e.End, e.End-e.Start)
			}
			check(f.Close())
		}
		fmt.Fprintf(os.Stderr, "latency: raw CSVs written to %s\n", *csvDir)
	}

	fmt.Print(figures.LatencyFigure(results))
	fmt.Println("GC pauses versus user-experienced latency (Recommendation L1):")
	fmt.Print(figures.PauseSummary(results))
	if *mmu {
		fmt.Println("\nminimum mutator utilization (Figure 2 methodology):")
		fmt.Print(figures.MMUFigure(results))
	}
	if *jops {
		fmt.Println("\ncritical-jOPS under the SPECjbb2015 SLA ladder:")
		fmt.Print(figures.CriticalJOPSTable(results))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "latency: %v\n", err)
		os.Exit(1)
	}
}
