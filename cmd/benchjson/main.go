// Command benchjson captures `go test -bench -benchmem` output as JSON.
//
// It reads benchmark output on stdin, echoes it unchanged to stdout (so the
// run stays visible in the terminal and in CI logs), and writes a JSON file
// mapping benchmark name → {ns_per_op, b_per_op, allocs_per_op,
// iterations}. When a benchmark appears more than once (go test -count=N),
// the per-metric median is recorded, so a baseline captured with -count=5 is
// directly comparable to cmd/benchdiff's median-of-five gate runs. The
// GOMAXPROCS suffix (-8 etc.) is stripped so the names are stable across
// machines; `make bench` uses it to seed the repo's perf trajectory in
// BENCH_sim.json. Reading, the median reduction and writing are
// internal/obs/benchdiff's, the same code cmd/benchdiff reads both formats
// with, so a result line one command refuses the other refuses too.
//
// For every benchmark recorded at both workers=1 and workers=8 (the
// full-suite scaling pair), a derived <name>/parallel-efficiency entry is
// added: the median of per-sample workers=1 ns ÷ workers=8 ns ratios — the
// suite's parallel speedup. -scaling-min gates on it: the run fails when
// any derived efficiency falls below the threshold ("auto" scales the
// expectation to the host: max(0.9, 0.5·min(8, NumCPU)), so an 8-core host
// demands ≥4x while a single core only demands not-regressing).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./internal/sim | benchjson -out BENCH_sim.json
//	benchjson -out /dev/null -scaling-min auto < bench-gate.txt
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"chopin/internal/obs/benchdiff"
)

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON path")
	scalingMin := flag.String("scaling-min", "", "fail unless every derived parallel-efficiency is at least this (a ratio, or 'auto' for a host-scaled threshold; empty disables)")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, os.Stderr, *out, *scalingMin); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// run echoes stdin to stdout while reading it, writes the median map to
// out and applies the scaling gate when scalingMin is set.
func run(stdin io.Reader, stdout, stderr io.Writer, out, scalingMin string) error {
	samples, err := benchdiff.Parse(io.TeeReader(stdin, stdout))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := samples.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write %s: %v", out, err)
	}
	fmt.Fprintf(stderr, "benchjson: wrote %d benchmarks to %s\n", len(samples), out)
	if scalingMin == "" {
		return nil
	}
	return gateScaling(stderr, samples, scalingMin)
}

// gateScaling enforces the scaling floor on every derived efficiency entry,
// reporting each to w. "auto" scales the demand to the host: half of ideal
// speedup up to 8 workers (≥4x on an 8-core host), but never below 0.9 — a
// single-core host cannot speed up, yet must not slow down either.
func gateScaling(w io.Writer, samples benchdiff.Samples, min string) error {
	thr := 0.0
	if min == "auto" {
		ideal := runtime.NumCPU()
		if ideal > 8 {
			ideal = 8
		}
		thr = 0.5 * float64(ideal)
		if thr < 0.9 {
			thr = 0.9
		}
	} else {
		v, err := strconv.ParseFloat(min, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("bad -scaling-min %q (want a positive ratio or 'auto')", min)
		}
		thr = v
	}
	names := make([]string, 0, len(samples))
	for n := range samples {
		if strings.HasSuffix(n, benchdiff.EffSuffix) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-scaling-min set but no workers=1/workers=8 pair on stdin")
	}
	sort.Strings(names)
	var failed []string
	for _, n := range names {
		eff := samples[n].Median().NsPerOp
		status := "ok"
		if eff < thr {
			status = "FAIL"
			failed = append(failed, n)
		}
		fmt.Fprintf(w, "benchjson: %s = %.2fx (floor %.2fx) %s\n", n, eff, thr, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("parallel efficiency below %.2fx: %s", thr, strings.Join(failed, ", "))
	}
	return nil
}
