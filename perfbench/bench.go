package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is a metric's name and unit as BENCHMARK.json declares them.
type metric struct{ name, unit string }

// endToEnd are printed by every untraced run.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
}

// perLayer are printed by every traced run, 0 where the workload leaves the
// layer idle. The <layer>.cpu_s entries come from the CPU profile.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_s", "s"})
	}
	return append(ms,
		metric{"trace.profile_cpu_s", "s"},
		metric{"trace.overhead_s", "s"},
		metric{"exper.executed", "count"},
		metric{"exper.cache_hits", "count"},
		metric{"exper.ooms", "count"},
		metric{"exper.late_jobs", "count"},
		metric{"exper.late_ratio", "ratio"},
		metric{"exper.queue_wait_ms.p50", "ms"},
		metric{"exper.queue_wait_ms.p95", "ms"},
		metric{"exper.run_ms.p50", "ms"},
		metric{"exper.run_ms.p95", "ms"},
		metric{"exper.busy_frac", "ratio"},
		metric{"exper.hit_ms.p50", "ms"},
		metric{"exper.hit_ms.p90", "ms"},
		metric{"exper.cache_open_s", "s"},
		metric{"exper.close_s", "s"},
		metric{"exper.cache_mb", "MB"},
		metric{"exper.submissions", "count"},
		metric{"harness.collect_s", "s"},
		metric{"harness.anchor_s.p50", "s"},
		metric{"harness.anchor_s.max", "s"},
		metric{"harness.cells", "count"},
		metric{"fleet.cell_s.p50", "s"},
		metric{"fleet.cell_s.max", "s"},
		metric{"fleet.host_ns_per_request", "ns"},
		metric{"fleet.completions", "count"},
		metric{"fleet.retries", "count"},
		metric{"obs.record_s", "s"},
		metric{"obs.events", "count"},
		metric{"obs.jsonl_mb", "MB"},
		metric{"obs.decode_s", "s"},
		metric{"span.build_s", "s"},
		metric{"traceview.render_s", "s"},
		metric{"traceview.mb", "MB"},
		metric{"goruntime.alloc_mb", "MB"},
		metric{"goruntime.gc_cycles", "count"},
	)
}()

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
	out      string
	// expected maps a workload to the committed digest of its output at
	// this seed; nil when none is committed.
	expected map[string]string
	workers  int
	log      io.Writer
}

// env is what a workload's rep sees of the run: where to put scratch files,
// how many engine workers to use (and calibration goroutines to run), and —
// in traced reps only — the span log, the job log and the CPU profile.
type env struct {
	work       string
	workers    int
	calWorkers int
	spans      *spanLog
	jobs       *jobLog
	profile    *bytes.Buffer
}

// start and stop bracket a rep's timed section, from its first call into
// the program to its last result.
func (e *env) start(r *repOut) {
	if e.profile != nil {
		e.profile.Reset()
		if err := pprof.StartCPUProfile(e.profile); err != nil {
			e.profile = nil
		}
	}
	r.begin = readUsage(true)
}

func (e *env) stop(r *repOut) {
	r.end = readUsage(true)
	if e.profile != nil {
		pprof.StopCPUProfile()
	}
}

// repOut is one rep's measurements and output.
type repOut struct {
	begin, end usage
	ops        int
	// cal is the calibration kernel's host seconds around the rep.
	cal    float64
	digest string
	// counts must repeat exactly in every rep of a run; info are
	// timing-dependent and only reported.
	counts map[string]int64
	info   map[string]int64
	layer  map[string]float64
	// problem is a failed output check.
	problem error
}

func (r *repOut) wall() float64 { return r.end.wall.Sub(r.begin.wall).Seconds() }
func (r *repOut) cpu() float64  { return (r.end.cpu - r.begin.cpu).Seconds() }

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

//go:embed digests.json
var digestsJSON []byte

// loadDigests returns the committed output digests for a seed, nil when
// none are committed.
func loadDigests(seed uint64) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return all[strconv.FormatUint(seed, 10)], nil
}

// refCalS is the calibration kernel's host seconds on a quiet reference
// host (a 2-vCPU virtual machine). Every end-to-end time is reported at that
// host speed: t × refCalS / cal, where cal is the kernel's time measured
// right before and after t. A shared host's speed can shift by 20–50% for
// minutes at a time; the scaling cancels those shifts, which hit the kernel
// and the program alike.
const refCalS = 0.1

// setups is how many times an untraced run sets its workload up; setup_s is
// their median.
const setups = 3

// serial are the workloads whose program calls run on one goroutine; their
// calibration kernel does too. The others run engine workers on every CPU.
var serial = map[string]bool{"fleet-trace": true}

// run sets the workload up (inputs, reference outputs, and one untimed
// warm-up rep) several times, then repeats the timed rep until the time
// budget is spent. A traced run sets up once and spends the first part of
// its budget untraced, for the tracing overhead, and the rest profiled.
func run(cfg config) (*result, error) {
	root, err := os.MkdirTemp(mkdir(cfg.out), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	calWorkers := cfg.workers
	if serial[cfg.workload] {
		calWorkers = 1
	}
	var problems []error
	var reps []*repOut
	note := func(r *repOut, phase string) {
		fmt.Fprintf(cfg.log, "%s %s: wall %.3fs cpu %.3fs cal %.4fs ops %d digest %.16s\n",
			cfg.workload, phase, r.wall(), r.cpu(), r.cal, r.ops, r.digest)
		if r.problem != nil {
			fmt.Fprintf(cfg.log, "%s %s: CHECK FAILED: %v\n", cfg.workload, phase, r.problem)
			problems = append(problems, r.problem)
		}
		if len(reps) > 0 {
			if r.digest != reps[0].digest {
				problems = append(problems, fmt.Errorf("output digest %s in one rep and %s in another", reps[0].digest, r.digest))
			}
			for k, v := range reps[0].counts {
				if r.counts[k] != v {
					problems = append(problems, fmt.Errorf("%s is %d in one rep and %d in another", k, v, r.counts[k]))
				}
			}
		}
		if want := cfg.expected[cfg.workload]; want != "" && r.digest != want {
			problems = append(problems, fmt.Errorf("output digest %s, committed %s", r.digest, want))
		}
		reps = append(reps, r)
	}

	// Each set-up makes a fresh workload in a fresh directory, so each does
	// the whole work; the last one is measured.
	t0 := time.Now()
	n := setups
	if cfg.trace {
		n = 1
	}
	var w benchWorkload
	var e *env
	var setupS, rawSetupS []float64
	for i := 0; i < n; i++ {
		if e != nil {
			os.RemoveAll(e.work)
		}
		work, err := os.MkdirTemp(root, "setup-")
		if err != nil {
			return nil, err
		}
		e = &env{work: work, workers: cfg.workers, calWorkers: calWorkers}
		before := calibrate(calWorkers)
		start := time.Now()
		if w, err = newWorkload(cfg.workload, cfg.size, cfg.seed); err != nil {
			return nil, err
		}
		if err := w.setup(e); err != nil {
			return nil, err
		}
		warm, err := w.rep(e)
		if err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		warm.cal = (before + calibrate(calWorkers)) / 2
		note(warm, "warm-up")
		setupS = append(setupS, took*refCalS/warm.cal)
		rawSetupS = append(rawSetupS, took)
	}
	fmt.Fprintf(cfg.log, "%s seed %d output digest %s\n", cfg.workload, cfg.seed, reps[0].digest)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	untracedBudget := budget
	if cfg.trace {
		untracedBudget = budget * 2 / 5
	}
	timed := timedReps(e, w, untracedBudget, note, "rep")
	if len(timed) == 0 {
		return nil, fmt.Errorf("no rep completed")
	}
	res := &result{Metrics: map[string]value{}}
	var walls, cpus, rawWalls, rawCPUs []float64
	for _, r := range timed {
		walls = append(walls, r.wall()*refCalS/r.cal)
		cpus = append(cpus, r.cpu()*refCalS/r.cal)
		rawWalls = append(rawWalls, r.wall())
		rawCPUs = append(rawCPUs, r.cpu())
	}
	res.Attempted = int64(len(timed) * w.ops())

	if !cfg.trace {
		fmt.Fprintf(cfg.log, "%s medians in host seconds, unscaled: setup %.3fs wall %.3fs cpu %.3fs over %d reps\n",
			cfg.workload, median(rawSetupS), median(rawWalls), median(rawCPUs), len(timed))
		last := timed[len(timed)-1].end
		res.Metrics["setup_s"] = value{median(setupS), "s"}
		res.Metrics["wall_s"] = value{median(walls), "s"}
		res.Metrics["cpu_s"] = value{median(cpus), "s"}
		res.Metrics["peak_rss_mb"] = value{float64(last.maxRSSKB) / 1024, "MB"}
	} else {
		e.spans = &spanLog{epoch: t0}
		e.profile = &bytes.Buffer{}
		traced := timedReps(e, w, budget-untracedBudget, note, "traced rep")
		res.Attempted += int64(len(traced) * w.ops())
		metrics, err := layerMetrics(cfg, e, traced, median(rawWalls))
		if err != nil {
			return nil, err
		}
		res.Metrics = metrics
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(cfg.log, "%s: %v\n", cfg.workload, p)
		}
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	if !cfg.trace {
		res.Metrics["success_ratio"] = value{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	}
	return res, nil
}

// timedReps repeats the workload's rep, with the calibration kernel between
// reps, while the next rep and kernel, expected to take about as long as
// the median so far, still fit the budget; it always runs at least one. In
// traced runs each rep gets a fresh job log and its own CPU profile.
func timedReps(e *env, w benchWorkload, budget time.Duration, note func(*repOut, string), phase string) []*repOut {
	var out []*repOut
	var rounds []float64
	start := time.Now()
	cal := calibrate(e.calWorkers)
	for {
		roundStart := time.Now()
		if e.spans != nil {
			e.spans.rep = len(out) + 1
			e.jobs = newJobLog()
		}
		r, err := w.rep(e)
		if err != nil {
			r = &repOut{problem: err, layer: map[string]float64{}}
		}
		after := calibrate(e.calWorkers)
		r.cal, cal = (cal+after)/2, after
		if e.profile != nil && r.problem == nil {
			if err := attributeProfile(e.profile.Bytes(), r.layer); err != nil {
				r.problem = err
			}
		}
		note(r, phase)
		out = append(out, r)
		rounds = append(rounds, time.Since(roundStart).Seconds())
		next := time.Duration(median(rounds) * float64(time.Second))
		if time.Since(start)+next > budget {
			return out
		}
	}
}

// attributeProfile adds each layer's CPU seconds from one rep's profile to
// layer, and the profile's total as trace.profile_cpu_s.
func attributeProfile(gz []byte, layer map[string]float64) error {
	p, err := parseCPUProfile(gz)
	if err != nil {
		return err
	}
	by, err := p.attribute()
	if err != nil {
		return err
	}
	var sum int64
	for _, l := range layers {
		layer[l+".cpu_s"] = float64(by[l]) / 1e9
		sum += by[l]
	}
	if sum != p.totalNS {
		return fmt.Errorf("layer CPU sums to %dns, profile total %dns", sum, p.totalNS)
	}
	layer["trace.profile_cpu_s"] = float64(p.totalNS) / 1e9
	return nil
}

// layerMetrics reduces the traced reps to the per-layer metrics (medians
// over reps), prints the ledger and the informational counters, and writes
// the spans to the output directory.
func layerMetrics(cfg config, e *env, traced []*repOut, untracedWall float64) (map[string]value, error) {
	out := map[string]value{}
	var walls []float64
	for _, r := range traced {
		walls = append(walls, r.wall())
	}
	for _, m := range perLayer {
		var xs []float64
		var sum float64
		for _, r := range traced {
			xs = append(xs, r.layer[m.name])
			sum += r.layer[m.name]
		}
		out[m.name] = value{median(xs), m.unit}
		if strings.HasSuffix(m.name, "cpu_s") {
			// Means, not medians, so the layers still add up to the total.
			out[m.name] = value{sum / float64(len(traced)), m.unit}
		}
	}
	var alloc, cycles []float64
	for _, r := range traced {
		alloc = append(alloc, float64(r.end.allocated-r.begin.allocated)/(1<<20))
		cycles = append(cycles, float64(r.end.gcCycles-r.begin.gcCycles))
	}
	out["goruntime.alloc_mb"] = value{median(alloc), "MB"}
	out["goruntime.gc_cycles"] = value{median(cycles), "count"}
	out["trace.overhead_s"] = value{median(walls) - untracedWall, "s"}

	cpu := map[string]float64{}
	for _, l := range layers {
		cpu[l] = out[l+".cpu_s"].Value
	}
	printLedger(cfg.log, cfg.workload, cpu, out["trace.profile_cpu_s"].Value)
	info := traced[0].info
	for _, k := range sortedKeys(info) {
		fmt.Fprintf(cfg.log, "informational (timing-dependent) %s = %d\n", k, info[k])
	}
	self := e.spans.selfTimes()
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(cfg.log, "span self time %-24s %.3fs over %d reps\n", name, self[name].Seconds(), len(traced))
	}
	data, err := json.Marshal(e.spans.spans)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(mkdir(cfg.out), fmt.Sprintf("%s-seed%d.spans.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp and WriteFile report the failure
	return dir
}
