// Command benchjson captures `go test -bench -benchmem` output as JSON.
//
// It reads benchmark output on stdin, echoes it unchanged to stdout (so the
// run stays visible in the terminal and in CI logs), and writes a JSON file
// mapping benchmark name → {ns_per_op, b_per_op, allocs_per_op}. When a
// benchmark appears more than once (go test -count=N), the per-metric
// median is recorded, so a baseline captured with -count=5 is directly
// comparable to cmd/benchdiff's median-of-five gate runs. The GOMAXPROCS
// suffix (-8 etc.) is stripped so the names are stable across machines;
// `make bench` uses it to seed the repo's perf trajectory in BENCH_sim.json.
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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// effSuffix names derived scaling entries; benchdiff treats the metric as
// higher-is-better by this suffix.
const effSuffix = "/parallel-efficiency"

// Measurement is one benchmark's captured result.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      *int64  `json:"b_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	Iterations  int64   `json:"iterations"`
}

// benchLine matches `BenchmarkName-8   123456   78.9 ns/op ... 0 B/op  0 allocs/op`.
// Benchmarks that call b.ReportMetric interleave custom units between ns/op
// and the -benchmem columns, so B/op and allocs/op are matched anywhere after
// ns/op rather than immediately adjacent.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:.*?\s(\d+) B/op)?(?:.*?\s(\d+) allocs/op)?`)

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON path")
	scalingMin := flag.String("scaling-min", "", "fail unless every derived parallel-efficiency is at least this (a ratio, or 'auto' for a host-scaled threshold; empty disables)")
	flag.Parse()

	samples, err := parseBench(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	for n, ss := range deriveEfficiency(samples) {
		samples[n] = ss
	}
	results := make(map[string]Measurement, len(samples))
	for n, ss := range samples {
		results[n] = medianMeasurement(ss)
	}

	// Deterministic output: marshal via a sorted intermediate form.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, n := range names {
		entry, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, fmt.Sprintf("  %q: %s", n, entry)...)
		if i < len(names)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *out)

	if *scalingMin != "" {
		if err := gateScaling(results, *scalingMin); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}

// ParseError is a benchmark line parseBench refused.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %v: %q", e.Line, e.Err, e.Text)
}

func (e *ParseError) Unwrap() error { return e.Err }

// parseBench reads go test -bench output from r, echoing every line to echo,
// and returns each benchmark's samples in input order. Lines that are not
// benchmark results are skipped; a result whose iteration, B/op or
// allocs/op column overflows int64 is refused rather than clamped.
func parseBench(r io.Reader, echo io.Writer) (map[string][]Measurement, error) {
	samples := map[string][]Measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, &ParseError{Line: n, Text: line, Err: err}
		}
		meas := Measurement{NsPerOp: ns, Iterations: iters}
		if meas.BPerOp, err = optionalCount(m[4]); err == nil {
			meas.AllocsPerOp, err = optionalCount(m[5])
		}
		if err != nil {
			return nil, &ParseError{Line: n, Text: line, Err: err}
		}
		samples[m[1]] = append(samples[m[1]], meas)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return samples, nil
}

// optionalCount parses a -benchmem column; nil means the column is absent.
func optionalCount(col string) (*int64, error) {
	if col == "" {
		return nil, nil
	}
	v, err := strconv.ParseInt(col, 10, 64)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// deriveEfficiency pairs each benchmark's workers=1 and workers=8 samples
// positionally (-count runs emit them in the same order) into per-sample
// speedup ratios, returned as synthetic <base>/parallel-efficiency sample
// sets for the same median reduction as every real metric.
func deriveEfficiency(samples map[string][]Measurement) map[string][]Measurement {
	derived := map[string][]Measurement{}
	for name, w1 := range samples {
		base, ok := strings.CutSuffix(name, "/workers=1")
		if !ok {
			continue
		}
		w8 := samples[base+"/workers=8"]
		for i := 0; i < len(w1) && i < len(w8); i++ {
			if w8[i].NsPerOp <= 0 {
				continue
			}
			derived[base+effSuffix] = append(derived[base+effSuffix],
				Measurement{NsPerOp: w1[i].NsPerOp / w8[i].NsPerOp, Iterations: 1})
		}
	}
	return derived
}

// gateScaling enforces the scaling floor on every derived efficiency entry.
// "auto" scales the demand to the host: half of ideal speedup up to 8
// workers (≥4x on an 8-core host), but never below 0.9 — a single-core host
// cannot speed up, yet must not slow down either.
func gateScaling(results map[string]Measurement, min string) error {
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
		if err != nil || v <= 0 {
			return fmt.Errorf("bad -scaling-min %q (want a positive ratio or 'auto')", min)
		}
		thr = v
	}
	names := make([]string, 0, len(results))
	for n := range results {
		if strings.HasSuffix(n, effSuffix) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-scaling-min set but no workers=1/workers=8 pair on stdin")
	}
	sort.Strings(names)
	var failed []string
	for _, n := range names {
		eff := results[n].NsPerOp
		status := "ok"
		if eff < thr {
			status = "FAIL"
			failed = append(failed, n)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s = %.2fx (floor %.2fx) %s\n", n, eff, thr, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("parallel efficiency below %.2fx: %s", thr, strings.Join(failed, ", "))
	}
	return nil
}

// medianMeasurement reduces repeated samples of one benchmark (-count=N)
// to their per-metric medians. Metrics are reduced independently: the
// median ns/op run is not necessarily the median-allocation run, and a
// per-metric median is the robust baseline for benchdiff's median gate.
func medianMeasurement(ss []Measurement) Measurement {
	med := Measurement{
		NsPerOp:    medianFloat(ss, func(m Measurement) (float64, bool) { return m.NsPerOp, true }),
		Iterations: int64(medianFloat(ss, func(m Measurement) (float64, bool) { return float64(m.Iterations), true })),
	}
	if b := medianInt(ss, func(m Measurement) *int64 { return m.BPerOp }); b != nil {
		med.BPerOp = b
	}
	if a := medianInt(ss, func(m Measurement) *int64 { return m.AllocsPerOp }); a != nil {
		med.AllocsPerOp = a
	}
	return med
}

func medianFloat(ss []Measurement, get func(Measurement) (float64, bool)) float64 {
	var vs []float64
	for _, m := range ss {
		if v, ok := get(m); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 1 {
		return vs[n/2]
	} else {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
}

func medianInt(ss []Measurement, get func(Measurement) *int64) *int64 {
	var vs []int64
	for _, m := range ss {
		if p := get(m); p != nil {
			vs = append(vs, *p)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	v := vs[len(vs)/2]
	return &v
}
