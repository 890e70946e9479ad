// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public entry points users call — suite plans on an
// experiment engine, fleet sweeps, and the fleet tracing round trip — for a
// fixed time, checks the outputs, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	go run . -workload suite-cold -seed 42 -seconds 12 -trace 0
//
// With -trace 1 it also profiles the reps it times and prints per-layer
// metrics and a CPU ledger by layer. See README.md for the workloads, the
// layer table and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "suite-cold", "suite-cold, suite-warm, fleet-serve or fleet-trace")
		seed    = flag.Uint64("seed", 42, "workload seed")
		seconds = flag.Float64("seconds", 12, "measured time budget in seconds")
		trace   = flag.Int("trace", 0, "1: profile the timed reps and print per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch caches and trace output")
	)
	flag.Parse()
	if (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad -trace or -seconds")
		os.Exit(2)
	}
	expected, err := loadDigests(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     sizes["full"],
		out:      *out,
		expected: expected,
		workers:  runtime.NumCPU(),
		log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
