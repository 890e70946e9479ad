// Package benchdiff is the statistical perf-regression gate: it compares
// two sets of benchmark measurements and decides — with a significance test,
// not eyeballing — whether the new side got worse.
//
// It is also the only code that knows the repo's two benchmark formats.
// Parse reads either, sniffed automatically: the BENCH_sim.json map
// (name → Record {ns_per_op, b_per_op, allocs_per_op, iterations}, one
// sample per name), or raw `go test -bench` text, where `-count=N` yields N
// samples per name. Samples.WriteJSON writes the map, one per-metric median
// Record per name; cmd/benchdiff's write mode (-out) is a thin command over
// the two.
// Each benchmark is compared per metric: ns/op always, and — when both
// sides carry them (`-benchmem`) — B/op and allocs/op, so an allocation
// regression fails the gate exactly like a time regression. With three or
// more samples on both sides a comparison runs the Mann-Whitney U test
// (internal/stats) and flags a change only when it is both statistically
// significant (p < Alpha) and practically large (|Δmedian| > Threshold);
// with fewer samples there is no distribution to test, so the gate falls
// back to the threshold alone. That keeps the gate honest in both regimes:
// multi-sample runs cannot be failed by noise, and the checked-in
// single-sample baseline still catches a 20% cliff. A metric that goes from
// an exactly-zero old median to a nonzero new one (e.g. 0 → 2 allocs/op) is
// always a regression: no relative threshold can express "was free, now
// isn't".
package benchdiff

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"chopin/internal/report"
	"chopin/internal/stats"
)

// Metric identifies which benchmark column a sample series or delta refers
// to.
type Metric int

const (
	// NsPerOp is wall time per operation — present on every benchmark line.
	NsPerOp Metric = iota
	// BytesPerOp is heap bytes allocated per operation (-benchmem).
	BytesPerOp
	// AllocsPerOp is heap allocations per operation (-benchmem).
	AllocsPerOp
	numMetrics
)

func (m Metric) String() string {
	switch m {
	case BytesPerOp:
		return "B/op"
	case AllocsPerOp:
		return "allocs/op"
	default:
		return "ns/op"
	}
}

// Record is one benchmark measurement in BENCH_sim.json's value shape: one
// `go test -bench` result line, one map entry, or the per-metric median of
// several (Series.Median). The -benchmem columns are pointers so a
// benchmark recorded without them is distinguishable from one that
// genuinely allocates zero.
type Record struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      *int64  `json:"b_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	Iterations  int64   `json:"iterations"`
}

// check refuses what no benchmark run records: an ns/op that is not a
// finite number ≥ 0, or a negative count.
func (r Record) check() error {
	if !(r.NsPerOp >= 0) || math.IsInf(r.NsPerOp, 1) {
		return fmt.Errorf("ns/op %v is not a finite number ≥ 0", r.NsPerOp)
	}
	if r.Iterations < 0 || r.BPerOp != nil && *r.BPerOp < 0 || r.AllocsPerOp != nil && *r.AllocsPerOp < 0 {
		return errors.New("negative count")
	}
	return nil
}

// Series holds one benchmark's samples in input order.
type Series []Record

// Samples returns the values recorded for metric m, in input order (nil if
// none).
func (s Series) Samples(m Metric) []float64 {
	var vs []float64
	for _, r := range s {
		switch {
		case m == NsPerOp:
			vs = append(vs, r.NsPerOp)
		case m == BytesPerOp && r.BPerOp != nil:
			vs = append(vs, float64(*r.BPerOp))
		case m == AllocsPerOp && r.AllocsPerOp != nil:
			vs = append(vs, float64(*r.AllocsPerOp))
		}
	}
	return vs
}

// Median reduces the series metric by metric — the median ns/op run is not
// necessarily the median-allocation run, and a per-metric median is the
// robust baseline for the gate. ns/op takes the float median; B/op and
// allocs/op the upper-middle recorded value (absent if none is recorded);
// iterations the mean of the middle two, truncated. s must not be empty.
func (s Series) Median() Record {
	ns := s.Samples(NsPerOp)
	sort.Float64s(ns)
	med := Record{NsPerOp: ns[len(ns)/2]}
	if len(ns)%2 == 0 {
		// Halves first: the sum of two large finite values may overflow.
		med.NsPerOp = ns[len(ns)/2-1]/2 + ns[len(ns)/2]/2
	}
	var iters, bs, allocs []int64
	for _, r := range s {
		iters = append(iters, r.Iterations)
		if r.BPerOp != nil {
			bs = append(bs, *r.BPerOp)
		}
		if r.AllocsPerOp != nil {
			allocs = append(allocs, *r.AllocsPerOp)
		}
	}
	slices.Sort(iters)
	lo, hi := iters[(len(iters)-1)/2], iters[len(iters)/2]
	med.Iterations = lo + (hi-lo)/2 // counts are ≥ 0, so this cannot overflow
	med.BPerOp, med.AllocsPerOp = upperMiddle(bs), upperMiddle(allocs)
	return med
}

func upperMiddle(vs []int64) *int64 {
	if len(vs) == 0 {
		return nil
	}
	slices.Sort(vs)
	return &vs[len(vs)/2]
}

// Samples maps benchmark name → its samples.
type Samples map[string]Series

// WriteJSON writes s as a BENCH_sim.json map: one line per benchmark, in
// name order, holding the Median of its samples.
func (s Samples) WriteJSON(w io.Writer) error {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, n := range names {
		key, _ := json.Marshal(n) // a string always marshals
		val, err := json.Marshal(s[n].Median())
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s: %s%s\n", key, val, sep)
	}
	b.WriteString("}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// ParseError is a `go test -bench` result line the reader refused: a
// Record cannot hold it exactly.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %v: %q", e.Line, e.Err, e.Text)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ParseFile loads benchmark samples from path, sniffing the format: a file
// whose first non-space byte is '{' is a BENCH_sim.json map, anything else
// is `go test -bench` text.
func ParseFile(path string) (Samples, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse reads samples from r, sniffing the format as ParseFile does, and
// adds the derived parallel-efficiency series.
func Parse(r io.Reader) (Samples, error) {
	br := bufio.NewReader(r)
	for {
		c, err := br.ReadByte()
		if err != nil {
			return nil, errors.New("empty input")
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		br.UnreadByte()
		var s Samples
		if c == '{' {
			s, err = parseJSON(br)
		} else {
			s, err = parseBenchText(br)
		}
		if err == nil {
			err = deriveEfficiency(s)
		}
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// EffSuffix names derived parallel-efficiency entries (workers=1 ns ÷
// workers=8 ns). The metric is higher-is-better, so compareMetric inverts
// the verdict direction for names carrying it.
const EffSuffix = "/parallel-efficiency"

// deriveEfficiency adds a <base>/parallel-efficiency series for each
// benchmark recorded at both workers=1 and workers=8 (the full-suite
// scaling pair): per-sample speedups, paired positionally (-count runs emit
// them in the same order), so a raw `go test -bench` gate run compares
// cleanly against a JSON baseline that already carries the derived entry.
// Names already present (JSON baselines) are left alone. A ratio that is not
// finite is refused, naming the pair.
func deriveEfficiency(s Samples) error {
	for name, w1 := range s {
		base, ok := strings.CutSuffix(name, "/workers=1")
		if _, done := s[base+EffSuffix]; !ok || done {
			continue
		}
		w8 := s[base+"/workers=8"]
		var eff Series
		for i := 0; i < len(w1) && i < len(w8); i++ {
			r := w1[i].NsPerOp / w8[i].NsPerOp
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("%s sample %d: %v ns/op at workers=1 ÷ %v ns/op at workers=8 is not finite",
					base+EffSuffix, i+1, w1[i].NsPerOp, w8[i].NsPerOp)
			}
			eff = append(eff, Record{NsPerOp: r, Iterations: 1})
		}
		if eff != nil {
			s[base+EffSuffix] = eff
		}
	}
	return nil
}

func parseJSON(r io.Reader) (Samples, error) {
	var m map[string]Record
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("bad JSON benchmark map: %w", err)
	}
	if len(m) == 0 {
		return nil, errors.New("no benchmarks in JSON map")
	}
	s := Samples{}
	for name, rec := range m {
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s[name] = Series{rec}
	}
	return s, nil
}

// parseBenchText reads `go test -bench` output: every result line is one
// sample, so -count=N yields N samples per benchmark name. A result line is
// one that starts with "Benchmark" and carries an ns/op column; every other
// line is skipped. A result line a Record cannot hold exactly is refused
// with a *ParseError.
func parseBenchText(r io.Reader) (Samples, error) {
	s := Samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		name, rec, err := parseBenchLine(line)
		if err != nil {
			return nil, &ParseError{Line: n, Text: line, Err: err}
		}
		if name != "" {
			s[name] = append(s[name], rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s) == 0 {
		return nil, errors.New("no benchmark lines found")
	}
	return s, nil
}

// parseBenchLine reads one result line: the name (GOMAXPROCS suffix
// stripped, so names are stable across machines), the iteration count,
// then (value, unit) pairs. Benchmarks that call b.ReportMetric interleave
// custom units between ns/op and the -benchmem columns, so pairs are
// matched by unit, not position, and custom units are skipped. It returns
// an empty name for a line that is not a result line.
func parseBenchLine(line string) (name string, rec Record, err error) {
	fields := strings.Fields(line)
	if !strings.HasPrefix(line, "Benchmark") || !slices.Contains(fields[1:], "ns/op") {
		return "", rec, nil
	}
	if len(fields)%2 != 0 {
		return "", rec, errors.New("want a name, an iteration count and value-unit pairs")
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 && allDigits(name[i+1:]) {
		name = name[:i]
	}
	if rec.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", rec, fmt.Errorf("iterations: %w", err)
	}
	seen := map[string]bool{}
	for i := 2; i < len(fields); i += 2 {
		v, unit := fields[i], fields[i+1]
		var count **int64
		switch unit {
		case "ns/op":
			if rec.NsPerOp, err = strconv.ParseFloat(v, 64); err != nil {
				return "", rec, fmt.Errorf("ns/op: %w", err)
			}
		case "B/op":
			count = &rec.BPerOp
		case "allocs/op":
			count = &rec.AllocsPerOp
		default:
			continue // custom b.ReportMetric unit
		}
		if seen[unit] {
			return "", rec, fmt.Errorf("%s given twice", unit)
		}
		seen[unit] = true
		if count != nil {
			c, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return "", rec, fmt.Errorf("%s: %w", unit, err)
			}
			*count = &c
		}
	}
	return name, rec, rec.check()
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Options tunes the gate's decision rule.
type Options struct {
	// Threshold is the minimum practically-significant |Δmedian| as a
	// fraction of the old median (default 0.05 = 5%).
	Threshold float64
	// Alpha is the Mann-Whitney significance level applied when both sides
	// have at least three samples (default 0.05).
	Alpha float64
	// BootstrapIters sizes the median bootstrap (default 1000).
	BootstrapIters int
	// Seed makes the bootstrap reproducible (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 0.05
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.BootstrapIters <= 0 {
		o.BootstrapIters = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Verdict is the gate's decision for one benchmark metric.
type Verdict int

const (
	// Unchanged means no significant difference was found.
	Unchanged Verdict = iota
	// Regression means the new side is significantly worse.
	Regression
	// Improvement means the new side is significantly better.
	Improvement
	// OnlyOld and OnlyNew flag benchmarks present on one side alone
	// (renamed, added or deleted) — reported, never failed on.
	OnlyOld
	OnlyNew
)

func (v Verdict) String() string {
	switch v {
	case Regression:
		return "REGRESSION"
	case Improvement:
		return "improvement"
	case OnlyOld:
		return "deleted"
	case OnlyNew:
		return "added"
	default:
		return "~"
	}
}

// Delta is the comparison result for one benchmark name and metric.
type Delta struct {
	Name    string
	Metric  Metric
	Verdict Verdict
	// OldMedian and NewMedian are in the metric's unit; Pct is the relative
	// change of the median ((new-old)/old), +Inf when an exactly-zero old
	// median became nonzero.
	OldMedian float64
	NewMedian float64
	Pct       float64
	// P is the Mann-Whitney two-sided p-value, or 1 when either side has
	// too few samples to test (Tested is then false).
	P      float64
	Tested bool
	// NewLo and NewHi bracket the new median (95% bootstrap CI) when the
	// new side has enough samples; both zero otherwise.
	NewLo, NewHi float64
	NOld, NNew   int
}

// Report is a full comparison: one Delta per benchmark name and metric
// present on both sides, sorted by name then metric.
type Report struct {
	Deltas       []Delta
	Regressions  int
	Improvements int
}

// Compare runs the gate over two sample sets. Every benchmark gets an ns/op
// delta; B/op and allocs/op deltas appear when both sides recorded them.
func Compare(old, new Samples, opt Options) Report {
	opt = opt.withDefaults()
	names := map[string]bool{}
	for n := range old {
		names[n] = true
	}
	for n := range new {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var rep Report
	for _, name := range sorted {
		so, sn := old[name], new[name]
		if so == nil {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: name, Verdict: OnlyNew,
				NewMedian: stats.Median(sn.Samples(NsPerOp)),
				NNew:      len(sn.Samples(NsPerOp)), P: 1,
			})
			continue
		}
		if sn == nil {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: name, Verdict: OnlyOld,
				OldMedian: stats.Median(so.Samples(NsPerOp)),
				NOld:      len(so.Samples(NsPerOp)), P: 1,
			})
			continue
		}
		for m := Metric(0); m < numMetrics; m++ {
			o, n := so.Samples(m), sn.Samples(m)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			// A metric recorded on one side only is a shape change (a bench
			// gained or lost -benchmem columns, a new benchmark's metric has
			// no baseline yet): reported as added/deleted, never a gate
			// failure — exactly like a name present on one side alone.
			if len(n) == 0 {
				rep.Deltas = append(rep.Deltas, Delta{
					Name: name, Metric: m, Verdict: OnlyOld,
					OldMedian: stats.Median(o), NOld: len(o), P: 1,
				})
				continue
			}
			if len(o) == 0 {
				rep.Deltas = append(rep.Deltas, Delta{
					Name: name, Metric: m, Verdict: OnlyNew,
					NewMedian: stats.Median(n), NNew: len(n), P: 1,
				})
				continue
			}
			d := compareMetric(name, m, o, n, opt)
			switch d.Verdict {
			case Regression:
				rep.Regressions++
			case Improvement:
				rep.Improvements++
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	return rep
}

// compareMetric decides one (benchmark, metric) pair.
func compareMetric(name string, m Metric, o, n []float64, opt Options) Delta {
	d := Delta{Name: name, Metric: m, NOld: len(o), NNew: len(n), P: 1}
	d.OldMedian = stats.Median(o)
	d.NewMedian = stats.Median(n)
	switch {
	case d.OldMedian != 0:
		d.Pct = (d.NewMedian - d.OldMedian) / d.OldMedian
	case d.NewMedian != 0:
		// Zero → nonzero: infinitely past any relative threshold. The
		// hot-path benches live here — their whole contract is 0 allocs/op.
		d.Pct = math.Inf(1)
	}
	significant := false
	if len(o) >= 3 && len(n) >= 3 {
		d.Tested = true
		_, d.P = stats.MannWhitneyU(o, n)
		d.NewLo, d.NewHi = stats.BootstrapMedianCI(n, opt.BootstrapIters, opt.Seed)
		significant = d.P < opt.Alpha
	} else {
		// Too few samples for a rank test: the threshold alone decides
		// (the single-sample checked-in baseline regime).
		significant = true
	}
	if significant {
		switch {
		case d.Pct > opt.Threshold:
			d.Verdict = Regression
		case d.Pct < -opt.Threshold:
			d.Verdict = Improvement
		}
		// Parallel efficiency is a speedup ratio: higher is better, so a
		// significant drop is the regression.
		if strings.HasSuffix(name, EffSuffix) && d.Verdict != Unchanged {
			if d.Verdict == Regression {
				d.Verdict = Improvement
			} else {
				d.Verdict = Regression
			}
		}
	}
	return d
}

// Render writes the report as a benchstat-style aligned table.
func (r Report) Render(w io.Writer) {
	t := report.NewTable("benchmark", "metric", "old", "new", "delta", "p", "samples", "verdict")
	for _, d := range r.Deltas {
		old, new, delta, p := "-", "-", "-", "-"
		if d.NOld > 0 {
			old = report.FormatFloat(d.OldMedian)
		}
		if d.NNew > 0 {
			new = report.FormatFloat(d.NewMedian)
		}
		if d.NOld > 0 && d.NNew > 0 {
			if math.IsInf(d.Pct, 1) {
				delta = "+inf%"
			} else {
				delta = fmt.Sprintf("%+.1f%%", 100*d.Pct)
			}
			if d.Tested {
				p = fmt.Sprintf("%.3f", d.P)
			}
		}
		t.AddRow(d.Name, d.Metric.String(), old, new, delta, p,
			fmt.Sprintf("%d+%d", d.NOld, d.NNew), d.Verdict.String())
	}
	t.Render(w)
	switch {
	case r.Regressions > 0:
		fmt.Fprintf(w, "\n%d regression(s), %d improvement(s)\n", r.Regressions, r.Improvements)
	case r.Improvements > 0:
		fmt.Fprintf(w, "\nno regressions, %d improvement(s)\n", r.Improvements)
	default:
		fmt.Fprintf(w, "\nno significant changes\n")
	}
}
