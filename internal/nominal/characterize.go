package nominal

import (
	"fmt"
	"math"
	"sync"

	"chopin/internal/bytecode"
	"chopin/internal/cpuarch"
	"chopin/internal/gc"
	"chopin/internal/heap"
	"chopin/internal/jit"
	"chopin/internal/sim"
	"chopin/internal/stats"
	"chopin/internal/workload"
)

// Options controls the cost/fidelity tradeoff of a characterization.
type Options struct {
	// Events is the per-iteration event count used for characterization
	// runs; 0 picks a quarter of the workload's default (min 200).
	Events int
	// Invocations is the sample size for the PSD statistic (default 5).
	Invocations int
	// WarmupIters is how many iterations the PWU search runs (default 12).
	WarmupIters int
	// Seed perturbs all runs.
	Seed uint64
	// SkipSizeVariants skips the GMS/GML/GMV minimum-heap searches (the
	// most expensive part) and reports NaN for them.
	SkipSizeVariants bool
	// Run executes each characterization invocation (default workload.Run).
	// Passing an experiment engine's Run makes every probe a cacheable job.
	Run RunFunc
}

func (o Options) withDefaults(d *workload.Descriptor) Options {
	if o.Run == nil {
		o.Run = workload.Run
	}
	if o.Events == 0 {
		o.Events = d.Events / 4
		if o.Events < 200 {
			o.Events = 200
		}
	}
	if o.Invocations == 0 {
		o.Invocations = 5
	}
	if o.WarmupIters == 0 {
		o.WarmupIters = 12
	}
	return o
}

// Characterization is the measured nominal profile of one workload.
type Characterization struct {
	Workload string
	// Values maps metric name to value; metrics that are unavailable for
	// the workload are NaN (the paper's tables leave them blank).
	Values map[string]float64
	// MinHeapMB is the measured GMD, the denominator for heap-factor sweeps.
	MinHeapMB float64
}

// Value returns the metric's value (NaN when absent).
func (c *Characterization) Value(name string) float64 {
	if v, ok := c.Values[name]; ok {
		return v
	}
	return math.NaN()
}

// CharacterizeSuite characterizes every benchmark of ds, concurrently (with
// an engine's Run, each one's probes are engine jobs sharing its pool), and
// returns the characterizations in the order of ds. The error is the first
// failure in that order.
func CharacterizeSuite(ds []*workload.Descriptor, opt Options) ([]*Characterization, error) {
	chars := make([]*Characterization, len(ds))
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *workload.Descriptor) {
			defer wg.Done()
			chars[i], errs[i] = Characterize(d, opt)
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return chars, nil
}

// Characterize measures every nominal statistic for the workload: it
// searches minimum heaps, runs the G1 2x-heap profile, warmup and invocation
// series, compiler-configuration and machine-swap experiments, and merges
// the declared trait metrics.
func Characterize(d *workload.Descriptor, opt Options) (*Characterization, error) {
	opt = opt.withDefaults(d)
	c := &Characterization{Workload: d.Name, Values: map[string]float64{}}
	set := func(name string, v float64) { c.Values[name] = v }

	base := workload.RunConfig{
		Collector:  gc.G1,
		Iterations: 1,
		Events:     opt.Events,
		Seed:       opt.Seed,
	}

	// --- Minimum heaps (GMD and variants). Everything else hangs off GMD.
	// The paper defines GMD over a 5-iteration run, which matters for leaky
	// workloads whose live set grows per iteration; we probe with 3
	// iterations as a cost compromise.
	minheapCfg := base
	minheapCfg.Iterations = 3
	gmd, err := MinHeapWith(opt.Run, d, minheapCfg, 1)
	if err != nil {
		return nil, fmt.Errorf("characterize %s: GMD: %w", d.Name, err)
	}
	c.MinHeapMB = gmd
	set("GMD", gmd)

	uncompressed := minheapCfg
	uncompressed.DisableCompressedOops = true
	gmu, err := MinHeapWith(opt.Run, d, uncompressed, 1)
	if err != nil {
		return nil, fmt.Errorf("characterize %s: GMU: %w", d.Name, err)
	}
	set("GMU", gmu)

	if opt.SkipSizeVariants {
		set("GMS", math.NaN())
		set("GML", math.NaN())
		set("GMV", math.NaN())
	} else {
		for _, sv := range []struct {
			name string
			size workload.Size
		}{{"GMS", workload.SizeSmall}, {"GML", workload.SizeLarge}, {"GMV", workload.SizeVLarge}} {
			// Keep the characterization event budget: minimum heaps are
			// live-set dominated, so probing with fewer events is safe.
			v, err := MinHeapWith(opt.Run, d.Scaled(sv.size), minheapCfg, 1)
			if err != nil {
				return nil, fmt.Errorf("characterize %s: %s: %w", d.Name, sv.name, err)
			}
			set(sv.name, v)
		}
	}

	// --- The G1 2x-minheap profile run: ARA, PET, PKP, GTO, GCA/GCC/GCM/GCP.
	profileCfg := base
	profileCfg.HeapMB = 2 * gmd
	profileCfg.Iterations = 3
	prof, err := opt.Run(d, profileCfg)
	if err != nil {
		return nil, fmt.Errorf("characterize %s: profile run: %w", d.Name, err)
	}
	last := prof.Last()
	set("PET", last.WallNS/1e9)
	set("ARA", last.Allocated/(last.WallNS/1e3))
	set("PKP", pct(last.KernelNS/last.CPUNS))
	var totalAlloc float64
	for _, it := range prof.Iterations {
		totalAlloc += it.Allocated
	}
	set("GTO", totalAlloc/float64(len(prof.Iterations))/(gmd*workload.MB))

	minheapBytes := gmd * workload.MB
	var postGC []float64
	for _, e := range prof.Log.Events {
		postGC = append(postGC, e.UsedAfter/minheapBytes*100)
	}
	set("GCC", float64(len(prof.Log.Events)))
	if len(postGC) > 0 {
		set("GCA", stats.Mean(postGC))
		set("GCM", stats.Percentile(postGC, 50))
	} else {
		set("GCA", math.NaN())
		set("GCM", math.NaN())
	}
	var wallTotal float64
	for _, it := range prof.Iterations {
		wallTotal += it.WallNS
	}
	set("GCP", pct(prof.Log.TotalPauseNS()/wallTotal))

	// --- Heap size sensitivity: tight (1.1x) vs roomy (6x) heap.
	tight, err := lastWall(opt.Run, d, withHeap(base, 1.1*gmd, 2))
	if err != nil {
		return nil, fmt.Errorf("characterize %s: GSS tight: %w", d.Name, err)
	}
	roomy, err := lastWall(opt.Run, d, withHeap(base, 6*gmd, 2))
	if err != nil {
		return nil, fmt.Errorf("characterize %s: GSS roomy: %w", d.Name, err)
	}
	set("GSS", pct(tight/roomy-1))

	// --- Leakage: declared live growth over iterations 1..10 (the
	// simulator's live set follows the descriptor's leak schedule exactly).
	if d.LiveMB > 0 {
		set("GLK", pct(d.LeakMBPerIter*9/d.LiveMB))
	} else {
		set("GLK", 0)
	}

	// --- Warmup series (PWU) and iteration-0 data for PCC.
	warmCfg := withHeap(base, 2*gmd, opt.WarmupIters)
	warm, err := opt.Run(d, warmCfg)
	if err != nil {
		return nil, fmt.Errorf("characterize %s: warmup: %w", d.Name, err)
	}
	set("PWU", float64(warmedUpBy(warm)))

	// --- Compiler configurations: PIN, PCS (steady state), PCC (first
	// iteration under forced C2 versus tiered). The baseline must match the
	// experiment's iteration count: leaky workloads grow their live set per
	// iteration, so a 12-iteration-warmed baseline is not comparable to a
	// 2-iteration configuration run.
	// The paper times iteration 5 (-n 5), by which the tiered default is
	// well warmed for default-size inputs.
	tieredSteady, err := lastWall(opt.Run, d, withHeap(base, 2*gmd, 5))
	if err != nil {
		return nil, err
	}
	pin, err := lastWall(opt.Run, d, withCompiler(withHeap(base, 2*gmd, 5), jit.InterpreterOnly))
	if err != nil {
		return nil, err
	}
	set("PIN", pct(pin/tieredSteady-1))
	pcs, err := lastWall(opt.Run, d, withCompiler(withHeap(base, 2*gmd, 5), jit.WorstTier))
	if err != nil {
		return nil, err
	}
	set("PCS", pct(pcs/tieredSteady-1))
	c2Cfg := withCompiler(withHeap(base, 2*gmd, 1), jit.ForcedC2)
	c2, err := opt.Run(d, c2Cfg)
	if err != nil {
		return nil, err
	}
	set("PCC", pct(c2.Iterations[0].WallNS/warm.Iterations[0].WallNS-1))

	// --- Machine sensitivity: frequency boost (PFS), small LLC (PLS),
	// slow DRAM (PMS), other architectures (UAI, UAA).
	baseline2 := warm.Last().WallNS
	machineRun := func(m cpuarch.Machine) (float64, error) {
		cfg := withHeap(base, 2*gmd, opt.WarmupIters)
		cfg.Machine = m
		r, err := opt.Run(d, cfg)
		if err != nil {
			return 0, err
		}
		return r.Last().WallNS, nil
	}
	boost, err := machineRun(cpuarch.Zen4.WithBoost(cpuarch.ZenBoostGHz))
	if err != nil {
		return nil, err
	}
	set("PFS", pct(baseline2/boost-1))
	smallLLC, err := machineRun(cpuarch.Zen4.WithLLCScale(1.0 / 16))
	if err != nil {
		return nil, err
	}
	set("PLS", pct(smallLLC/baseline2-1))
	slowDRAM, err := machineRun(cpuarch.Zen4.WithSlowDRAM())
	if err != nil {
		return nil, err
	}
	set("PMS", pct(slowDRAM/baseline2-1))
	set("UAA", pct(d.Arch.TimeFactor(cpuarch.NeoverseN1)-1))
	set("UAI", pct(d.Arch.TimeFactor(cpuarch.GoldenCove)-1))

	// --- Invocation noise (PSD): coefficient of variation of the warmed
	// iteration across seeds.
	var walls []float64
	for i := 0; i < opt.Invocations; i++ {
		w, err := lastWall(opt.Run, d, reseed(withHeap(base, 2*gmd, 2), opt.Seed+uint64(i)*7919+1))
		if err != nil {
			return nil, err
		}
		walls = append(walls, w)
	}
	if m := stats.Mean(walls); m > 0 {
		set("PSD", pct(stats.StdDev(walls)/m))
	}

	// --- Microarchitectural profile via the CPU model on the reference
	// machine.
	td := d.Arch.Analyze(cpuarch.Zen4)
	set("UIP", 100*td.IPC)
	set("USF", 100*td.FrontEnd)
	set("USB", 100*td.BackEnd)
	set("UBM", 100*td.BackEndMemory)
	set("UBS", 1000*td.BadSpec)
	set("UBP", d.Arch.MispredictFrac1000)
	set("UBR", d.Arch.RestartFrac1M)
	set("UDC", d.Arch.DCMissPerKI)
	set("UDT", d.Arch.DTLBMissPerMI)
	set("ULL", d.Arch.LLCMissPerMI)
	set("USC", 1000*d.Arch.SMTContention)

	// --- Object demographics, measured by sampling the workload's fitted
	// size distribution (the analogue of the suite's bytecode-instrumented
	// allocation profiling). Falls back to the declared quantiles if the
	// distribution cannot be fitted.
	if dist, derr := heap.NewSizeDistribution(d.Demo); derr == nil {
		rng := sim.NewRNG(opt.Seed ^ 0xA11C)
		avg, p10, median, p90 := dist.MeasuredStats(rng, 100_000)
		set("AOA", avg)
		set("AOL", p90)
		set("AOM", median)
		set("AOS", p10)
	} else {
		set("AOA", d.Demo.AvgObjectBytes)
		set("AOL", d.Demo.ObjectBytesP90)
		set("AOM", d.Demo.ObjectBytesMedian)
		set("AOS", d.Demo.ObjectBytesP10)
	}
	// --- Bytecode-mix statistics, measured by instrumented execution of the
	// workload's synthesized program image (the suite ships equivalent
	// instrumentation tools; see internal/bytecode). Falls back to the
	// declared traits if synthesis fails.
	bt := bytecode.Targets{
		AALoadPerUS: d.Traits.BAL, AAStorePerUS: d.Traits.BAS,
		GetFieldPerUS: d.Traits.BGF, PutFieldPerUS: d.Traits.BPF,
		UniqueBytecodesK: d.Traits.BUB, UniqueFunctionsK: d.Traits.BUF,
		Focus:      d.Traits.BEF,
		ExecTimeUS: last.WallNS / 1e3,
	}
	if rep, berr := bytecode.Measure(bt, opt.Seed); berr == nil {
		set("BAL", rep.BAL)
		set("BAS", rep.BAS)
		set("BEF", rep.BEF)
		set("BGF", rep.BGF)
		set("BPF", rep.BPF)
		set("BUB", rep.BUB)
		set("BUF", rep.BUF)
	} else {
		set("BAL", d.Traits.BAL)
		set("BAS", d.Traits.BAS)
		set("BEF", d.Traits.BEF)
		set("BGF", d.Traits.BGF)
		set("BPF", d.Traits.BPF)
		set("BUB", d.Traits.BUB)
		set("BUF", d.Traits.BUF)
	}
	set("PPE", d.Traits.PPE)

	return c, nil
}

func pct(x float64) float64 { return 100 * x }

func withHeap(cfg workload.RunConfig, heapMB float64, iters int) workload.RunConfig {
	cfg.HeapMB = heapMB
	cfg.Iterations = iters
	return cfg
}

func withCompiler(cfg workload.RunConfig, c jit.Config) workload.RunConfig {
	cfg.Compiler = c
	return cfg
}

func reseed(cfg workload.RunConfig, seed uint64) workload.RunConfig {
	cfg.Seed = seed
	return cfg
}

// lastWall runs the workload and returns the final iteration's wall time.
func lastWall(run RunFunc, d *workload.Descriptor, cfg workload.RunConfig) (float64, error) {
	r, err := run(d, cfg)
	if err != nil {
		return 0, fmt.Errorf("characterize %s: %w", d.Name, err)
	}
	return r.Last().WallNS, nil
}

// warmedUpBy returns the first iteration whose wall time is within 1.5% of
// the best iteration — the paper's warmup criterion, measured from actual
// iteration times.
func warmedUpBy(r *workload.Result) int {
	best := math.Inf(1)
	for _, it := range r.Iterations {
		best = math.Min(best, it.WallNS)
	}
	for i, it := range r.Iterations {
		if it.WallNS <= best*1.015 {
			return i
		}
	}
	return len(r.Iterations)
}
