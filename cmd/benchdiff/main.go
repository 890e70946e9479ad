// Command benchdiff reads, records and compares benchmark results. It has
// two modes.
//
// Compare (two arguments) is the statistical perf-regression gate: it
// compares two benchmark result files and exits non-zero when the new side
// is significantly worse — slower (ns/op) or allocating more (B/op,
// allocs/op, compared whenever both sides carry the -benchmem columns).
// Each input is either a BENCH_sim.json-style map (written by -out) or raw
// `go test -bench` text; `-count=N` text carries N samples per benchmark,
// enabling the Mann-Whitney significance test. With fewer than three
// samples per side the relative-threshold rule alone decides; a metric
// whose old median is exactly zero regresses on any nonzero new value
// (0 allocs/op is a contract, not a baseline).
//
// Write (-out, no arguments) captures `go test -bench -benchmem` output: it
// reads benchmark output on stdin, echoes it unchanged to stdout (so the run
// stays visible in the terminal and in CI logs), and writes a JSON file
// mapping benchmark name → {ns_per_op, b_per_op, allocs_per_op,
// iterations}. When a benchmark appears more than once (go test -count=N),
// the per-metric median is recorded, so a baseline captured with -count=5 is
// directly comparable to the median-of-five gate runs. The GOMAXPROCS
// suffix (-8 etc.) is stripped so the names are stable across machines.
// For every benchmark recorded at both workers=1 and workers=8 (the
// full-suite scaling pair), a derived <name>/parallel-efficiency entry is
// added: the median of per-sample workers=1 ns ÷ workers=8 ns ratios — the
// suite's parallel speedup. -scaling-min gates on it: the run fails when
// any derived efficiency falls below the threshold ("auto" scales the
// expectation to the host: max(0.9, 0.5·min(8, NumCPU)), so an 8-core host
// demands ≥4x while a single core only demands not-regressing).
//
// Both modes read and write through internal/obs/benchdiff, so a result
// line one mode refuses the other refuses too.
//
// Usage:
//
//	go test -run='^$' -bench=. -count=5 ./internal/sim > new.txt
//	benchdiff BENCH_sim.json new.txt
//	benchdiff -threshold 0.10 -alpha 0.01 old.txt new.txt
//	go test -run='^$' -bench=. -benchmem ./internal/sim | benchdiff -out BENCH_sim.json
//	benchdiff -out /dev/null -scaling-min auto < bench-gate.txt
//
// Exit status: 0 when no benchmark regressed and the scaling gate passed,
// 1 on any significant regression or a scaling failure, 2 on usage or
// parse errors in compare mode. `make bench-gate` wires the compare mode
// against the checked-in BENCH_sim.json baseline; `make bench` writes that
// baseline.
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
	var (
		threshold  = flag.Float64("threshold", 0.05, "minimum |delta| of the median to flag, as a fraction")
		alpha      = flag.Float64("alpha", 0.05, "Mann-Whitney significance level (needs >=3 samples per side)")
		iters      = flag.Int("bootstrap", 1000, "bootstrap iterations for the median CI")
		seed       = flag.Uint64("seed", 1, "bootstrap RNG seed")
		out        = flag.String("out", "", "write mode: echo stdin and write its median map to this JSON path")
		scalingMin = flag.String("scaling-min", "", "write mode: fail unless every derived parallel-efficiency is at least this (a ratio, or 'auto' for a host-scaled threshold; empty disables)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] OLD NEW\n")
		fmt.Fprintf(os.Stderr, "       benchdiff -out FILE [-scaling-min MIN] < bench.txt\n\n")
		fmt.Fprintf(os.Stderr, "OLD and NEW are BENCH_sim.json-style maps or `go test -bench` output.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *out != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		if err := record(os.Stdin, os.Stdout, os.Stderr, *out, *scalingMin); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 2 || *scalingMin != "" {
		flag.Usage()
		os.Exit(2)
	}

	old, err := benchdiff.ParseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := benchdiff.ParseFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	rep := benchdiff.Compare(old, cur, benchdiff.Options{
		Threshold:      *threshold,
		Alpha:          *alpha,
		BootstrapIters: *iters,
		Seed:           *seed,
	})
	fmt.Printf("benchdiff: %s vs %s (threshold %.0f%%, alpha %.2f)\n\n",
		flag.Arg(0), flag.Arg(1), *threshold*100, *alpha)
	rep.Render(os.Stdout)
	if rep.Regressions > 0 {
		os.Exit(1)
	}
}

// record echoes stdin to stdout while reading it, writes the median map to
// out and applies the scaling gate when scalingMin is set.
func record(stdin io.Reader, stdout, stderr io.Writer, out, scalingMin string) error {
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
	fmt.Fprintf(stderr, "benchdiff: wrote %d benchmarks to %s\n", len(samples), out)
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
		fmt.Fprintf(w, "benchdiff: %s = %.2fx (floor %.2fx) %s\n", n, eff, thr, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("parallel efficiency below %.2fx: %s", thr, strings.Join(failed, ", "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}
