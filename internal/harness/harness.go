// Package harness orchestrates the paper's experiments: multi-invocation
// runs, per-benchmark minimum-heap identification, collector-by-heap-factor
// sweeps for LBO (Figures 1 and 5 and the appendix), latency experiments
// (Figures 3 and 6), and heap-occupancy timelines (appendix).
//
// It embodies the paper's methodological recommendations directly: heap
// sizes are always expressed as multiples of a measured per-benchmark
// minimum (H2), several invocations feed 95% confidence intervals (P1), and
// overheads are reported via LBO on both wall and task clock (O1/O2).
//
// Execution is delegated to the experiment engine (internal/exper) as job
// DAGs: each sweep's minimum-heap measurement is submitted as an anchor job
// up front (SubmitLBOGrid, SubmitLatency), and the moment an anchor
// resolves, every cell of its grid is submitted as one batch of
// content-addressed jobs — so a whole-suite plan keeps the engine's
// worker pool saturated across host cores from the first probe to
// the last cell, min-heap probes deduplicate across experiments, and — when
// the engine carries a result cache — sweeps are incremental and resumable.
// Results are collected and merged in fixed grid order, never scheduler
// order, so merged output is byte-identical at any worker count.
package harness

import (
	"errors"
	"fmt"
	"sync"

	"chopin/internal/exper"
	"chopin/internal/gc"
	"chopin/internal/latency"
	"chopin/internal/lbo"
	"chopin/internal/stats"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

// Options configures an experiment sweep.
type Options struct {
	// Collectors to evaluate; nil means the paper's five production
	// collectors in introduction order.
	Collectors []gc.Kind
	// HeapFactors are multiples of the measured minimum heap; nil means the
	// paper's 1-6x range with extra resolution at small heaps, where the
	// time-space tradeoff carries the information.
	HeapFactors []float64
	// Invocations per configuration (default 3; the paper uses 10).
	Invocations int
	// Iterations per invocation; the last is timed (default 3).
	Iterations int
	// Events per iteration; 0 scales the workload default down 4x to keep
	// sweeps affordable.
	Events int
	// Seed perturbs all invocations deterministically.
	Seed uint64
	// Engine executes the sweep's jobs. nil uses a shared default engine
	// (no cache, no telemetry, NumCPU workers); commands that want caching,
	// progress events, telemetry or resumability pass their own.
	Engine *exper.Engine
}

// DefaultHeapFactors mirrors the paper's sweep: dense at small heaps.
var DefaultHeapFactors = []float64{1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6}

func (o Options) withDefaults(d *workload.Descriptor) Options {
	if o.Collectors == nil {
		o.Collectors = gc.Kinds
	}
	if o.HeapFactors == nil {
		o.HeapFactors = DefaultHeapFactors
	}
	if o.Invocations <= 0 {
		o.Invocations = 3
	}
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.Events <= 0 {
		o.Events = d.Events / 4
		if o.Events < 200 {
			o.Events = 200
		}
	}
	return o
}

// defaultEngine is built on first use and shared for the process lifetime;
// idle workers wait on a condition variable, so it is never closed.
var defaultEngine = sync.OnceValue(func() *exper.Engine {
	return exper.New(exper.Options{})
})

// engine returns the engine the sweep runs on.
func (o Options) engine() *exper.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return defaultEngine()
}

// minHeapParams derives the engine min-heap request that anchors this
// sweep: the bound must validate under exactly the seeds the sweep uses.
func (o Options) minHeapParams() exper.MinHeapParams {
	return exper.MinHeapParams{
		Events:      o.Events,
		Iterations:  o.Iterations,
		Invocations: o.Invocations,
		Seed:        o.Seed,
	}
}

// MinHeapMB measures the benchmark's minimum heap under the baseline G1
// configuration (the paper's GMD definition), which anchors all heap-factor
// sweeps. The bound is validated against every invocation seed the sweep
// will use, growing by 3% steps until all of them complete; a bound that
// never validates is an error, so a sweep's 1x row is always runnable.
func MinHeapMB(d *workload.Descriptor, opt Options) (float64, error) {
	opt = opt.withDefaults(d)
	return opt.engine().MinHeapMB(d, opt.minHeapParams())
}

// invocationSet is the aggregate of several invocations of one
// configuration.
type invocationSet struct {
	completed bool
	wall, cpu []float64 // timed-iteration samples
	stwWall   []float64 // whole-run STW wall per invocation
	gcCPU     []float64 // whole-run GC CPU per invocation
	wholeWall []float64 // whole-run wall
	wholeCPU  []float64 // whole-run task clock
}

// pendingSet is a submitted-but-uncollected invocation set: one engine
// ticket per invocation, in seed order.
type pendingSet struct {
	tickets []*exper.Ticket
	err     error // submission error, returned when the set is collected
}

// submitSet registers opt.Invocations runs of one configuration as engine
// jobs and returns immediately with their tickets. Submitting every set of
// a sweep before collecting any is what hands the engine the whole batch at
// once.
func submitSet(eng *exper.Engine, d *workload.Descriptor, cfg workload.RunConfig, opt Options) *pendingSet {
	ps := &pendingSet{}
	for i := 0; i < opt.Invocations; i++ {
		c := cfg
		c.Seed = opt.Seed + uint64(i)*1_000_003 + 17
		t, err := eng.Submit(d, c)
		if err != nil {
			ps.err = err
			return ps
		}
		ps.tickets = append(ps.tickets, t)
	}
	return ps
}

// collectSet waits for a pending set's invocations in seed order and
// aggregates them. A configuration counts as completed only if every
// invocation completes — matching the paper's all-or-nothing plotting rule.
// Only running out of memory leaves a configuration incomplete; any other
// error is returned. Collection order is fixed by submission, not by the
// scheduler, so the aggregate (including float reduction order) is
// deterministic at any worker count.
func collectSet(ps *pendingSet) (*invocationSet, error) {
	if ps.err != nil {
		return nil, ps.err
	}
	set := &invocationSet{completed: true}
	for _, t := range ps.tickets {
		r, err := t.Wait()
		if outOfMemory(err) {
			set.completed = false
			return set, nil
		}
		if err != nil {
			return nil, err
		}
		last := r.Last()
		set.wall = append(set.wall, last.WallNS)
		set.cpu = append(set.cpu, last.CPUNS)
		var ww, wc float64
		for _, it := range r.Iterations {
			ww += it.WallNS
			wc += it.CPUNS
		}
		set.wholeWall = append(set.wholeWall, ww)
		set.wholeCPU = append(set.wholeCPU, wc)
		set.stwWall = append(set.stwWall, r.Log.TotalPauseNS())
		set.gcCPU = append(set.gcCPU, r.GCCPUNS)
	}
	return set, nil
}

// outOfMemory reports whether err is an out-of-memory outcome: the one
// failure that makes a cell incomplete rather than failing its sweep.
func outOfMemory(err error) bool {
	var oom *workload.ErrOutOfMemory
	return errors.As(err, &oom)
}

// cellError attributes a failed cell's error to its benchmark and coordinate.
func cellError(d *workload.Descriptor, c gridCell, err error) error {
	return fmt.Errorf("harness: %s %s at %gx: %w", d.Name, c.kind, c.f, err)
}

// gridCell is one (collector, heap factor) coordinate of a sweep, in the
// fixed enumeration order every merge follows.
type gridCell struct {
	kind gc.Kind
	f    float64
}

func gridCells(collectors []gc.Kind, factors []float64) []gridCell {
	var cells []gridCell
	for _, kind := range collectors {
		for _, f := range factors {
			cells = append(cells, gridCell{kind, f})
		}
	}
	return cells
}

// PendingGrid is a submitted-but-uncollected LBO sweep: the min-heap anchor
// job is in flight (or already cached), and the grid's cells are submitted
// as one batch the moment it resolves. Wait blocks for the merged grid.
type PendingGrid struct {
	done  chan struct{}
	grid  *lbo.Grid
	minMB float64
	err   error
}

// Wait blocks until the sweep's jobs complete and returns the merged grid
// and the measured minimum heap.
func (p *PendingGrid) Wait() (*lbo.Grid, float64, error) {
	<-p.done
	return p.grid, p.minMB, p.err
}

// SubmitLBOGrid registers one benchmark's whole LBO sweep as a job DAG and
// returns immediately: the minimum-heap measurement is the anchor
// (prerequisite) job, and every (collector, heap factor, invocation) cell
// job is submitted in a single batch when the anchor resolves. Submitting
// every benchmark's sweep up front is how a whole-suite run saturates the
// engine's pool; results merge in fixed grid order regardless of execution
// interleaving.
func SubmitLBOGrid(d *workload.Descriptor, opt Options) *PendingGrid {
	opt = opt.withDefaults(d)
	eng := opt.engine()
	p := &PendingGrid{done: make(chan struct{})}
	anchor, err := eng.SubmitMinHeap(d, opt.minHeapParams())
	if err != nil {
		p.err = fmt.Errorf("harness: %s min heap: %w", d.Name, err)
		close(p.done)
		return p
	}
	// Orchestration runs off the engine pool: it only submits jobs and
	// waits on tickets, so pool workers are never blocked on coordination.
	go func() {
		defer close(p.done)
		minMB, err := anchor.Wait()
		if err != nil {
			p.err = fmt.Errorf("harness: %s min heap: %w", d.Name, err)
			return
		}
		p.minMB = minMB
		p.grid, p.err = collectGrid(eng, d, opt, minMB)
	}()
	return p
}

// collectGrid submits every cell of the benchmark's grid as one batch of
// engine jobs, then collects and merges them in the same fixed grid order.
func collectGrid(eng *exper.Engine, d *workload.Descriptor, opt Options, minMB float64) (*lbo.Grid, error) {
	cells := gridCells(opt.Collectors, opt.HeapFactors)
	pending := make([]*pendingSet, len(cells))
	for i, c := range cells {
		pending[i] = submitSet(eng, d, workload.RunConfig{
			HeapMB:     minMB * c.f,
			Collector:  c.kind,
			Iterations: opt.Iterations,
			Events:     opt.Events,
		}, opt)
	}

	grid := &lbo.Grid{Benchmark: d.Name}
	for i, c := range cells {
		set, err := collectSet(pending[i])
		if err != nil {
			return nil, cellError(d, c, err)
		}
		m := lbo.Measurement{
			Collector:  c.kind.String(),
			HeapFactor: c.f,
			HeapMB:     minMB * c.f,
			Completed:  set.completed,
		}
		if set.completed {
			// LBO uses whole-run totals so concurrent cycles straddling
			// iteration boundaries are attributed.
			m.WallNS = stats.Mean(set.wholeWall)
			m.CPUNS = stats.Mean(set.wholeCPU)
			m.STWWallNS = stats.Mean(set.stwWall)
			m.GCCPUNS = stats.Mean(set.gcCPU)
			m.WallSamples = set.wholeWall
			m.CPUSamples = set.wholeCPU
		}
		grid.Add(m)
	}
	return grid, nil
}

// LBOGrid sweeps collectors and heap factors for one benchmark and returns
// its lower-bound-overhead grid: SubmitLBOGrid plus Wait. The minimum heap
// is measured first with the baseline configuration; incomplete (OOM) cells
// are recorded as such.
func LBOGrid(d *workload.Descriptor, opt Options) (*lbo.Grid, float64, error) {
	return SubmitLBOGrid(d, opt).Wait()
}

// PendingSuite is a submitted-but-uncollected whole-suite LBO plan: one
// PendingGrid per benchmark, all anchors already in flight.
type PendingSuite struct {
	ds      []*workload.Descriptor
	opt     Options
	pending []*PendingGrid
	err     error // a plan that could not be submitted
}

// SubmitSuiteLBO registers the whole suite's LBO plan (nil ds = every
// workload) as one job DAG and returns immediately: every benchmark's
// min-heap anchor is submitted now, and each benchmark's grid batch follows
// the moment its anchor resolves — the engine's pool sees the full plan at
// once and stays saturated until the last cell drains. An empty, non-nil ds
// is a plan with no geometric mean; its Wait returns an error.
func SubmitSuiteLBO(ds []*workload.Descriptor, opt Options) *PendingSuite {
	if ds == nil {
		ds = workload.All()
	}
	if len(ds) == 0 {
		return &PendingSuite{err: errors.New("harness: suite LBO of no benchmarks (nil selects the whole suite)")}
	}
	ps := &PendingSuite{ds: ds, opt: opt, pending: make([]*PendingGrid, len(ds))}
	for i, d := range ds {
		ps.pending[i] = SubmitLBOGrid(d, opt)
	}
	return ps
}

// Wait blocks until the plan completes and returns per-benchmark grids in
// input order plus the cross-suite geometric means of Figure 1.
func (ps *PendingSuite) Wait() ([]*lbo.Grid, []lbo.GeomeanPoint, error) {
	if ps.err != nil {
		return nil, nil, ps.err
	}
	grids := make([]*lbo.Grid, len(ps.pending))
	for i, p := range ps.pending {
		grid, _, err := p.Wait()
		if err != nil {
			return nil, nil, err
		}
		grids[i] = grid
	}
	o := ps.opt.withDefaults(ps.ds[0])
	names := make([]string, len(o.Collectors))
	for i, k := range o.Collectors {
		names[i] = k.String()
	}
	pts, err := lbo.Geomean(grids, names, o.HeapFactors)
	if err != nil {
		return nil, nil, err
	}
	return grids, pts, nil
}

// SuiteLBO runs LBOGrid for every workload in ds (nil = whole suite) and
// also returns the cross-suite geometric means of Figure 1: SubmitSuiteLBO
// plus Wait.
func SuiteLBO(ds []*workload.Descriptor, opt Options) ([]*lbo.Grid, []lbo.GeomeanPoint, error) {
	return SubmitSuiteLBO(ds, opt).Wait()
}

// LatencyResult is one cell of a latency experiment: the three latency
// views of one (collector, heap factor) configuration, plus the pause log
// for MMU analysis.
type LatencyResult struct {
	Benchmark   string
	Collector   string
	HeapFactor  float64
	HeapMB      float64
	Completed   bool
	Simple      *latency.Distribution
	Metered100  *latency.Distribution // 100ms smoothing window
	MeteredFull *latency.Distribution // full smoothing
	// Events are the raw timed events behind the distributions, for
	// downstream metrics (critical-jOPS, custom smoothing windows).
	Events   []latency.Event
	Pauses   []trace.Pause
	RunStart int64
	RunEnd   int64
}

// PendingLatency is a submitted-but-uncollected latency sweep, anchored on
// its min-heap job like PendingGrid.
type PendingLatency struct {
	done chan struct{}
	out  []LatencyResult
	err  error
}

// Wait blocks until the sweep's jobs complete and returns its cells in
// fixed grid order.
func (p *PendingLatency) Wait() ([]LatencyResult, error) {
	<-p.done
	return p.out, p.err
}

// SubmitLatency registers the latency experiment of Figures 3 and 6 as a
// job DAG and returns immediately: one invocation per (collector, heap
// factor) with per-event timing, all submitted in a batch once the
// min-heap anchor resolves.
func SubmitLatency(d *workload.Descriptor, factors []float64, opt Options) *PendingLatency {
	return submitLatency(d, factors, opt, false, 0)
}

// SubmitLatencyOpenLoop is SubmitLatency with the open-loop request
// discipline (see LatencyOpenLoop).
func SubmitLatencyOpenLoop(d *workload.Descriptor, factors []float64, headroom float64, opt Options) *PendingLatency {
	return submitLatency(d, factors, opt, true, headroom)
}

// LatencyOpenLoop is Latency with the open-loop request discipline: real
// scheduled arrivals at 1/headroom of the nominal rate, with queueing. The
// Simple distribution then holds true arrival-to-completion latency; the
// metered views remain computed for comparison against it (ablation A5).
func LatencyOpenLoop(d *workload.Descriptor, factors []float64, headroom float64, opt Options) ([]LatencyResult, error) {
	return SubmitLatencyOpenLoop(d, factors, headroom, opt).Wait()
}

// Latency runs the latency experiment of Figures 3 and 6: one invocation
// per (collector, heap factor) with per-event timing, reported as simple
// latency and metered latency at 100ms and full smoothing. SubmitLatency
// plus Wait.
func Latency(d *workload.Descriptor, factors []float64, opt Options) ([]LatencyResult, error) {
	return SubmitLatency(d, factors, opt).Wait()
}

func submitLatency(d *workload.Descriptor, factors []float64, opt Options,
	openLoop bool, headroom float64) *PendingLatency {
	opt = opt.withDefaults(d)
	eng := opt.engine()
	if factors == nil {
		factors = []float64{2, 6}
	}
	p := &PendingLatency{done: make(chan struct{})}
	anchor, err := eng.SubmitMinHeap(d, opt.minHeapParams())
	if err != nil {
		p.err = err
		close(p.done)
		return p
	}
	go func() {
		defer close(p.done)
		minMB, err := anchor.Wait()
		if err != nil {
			p.err = err
			return
		}
		cells := gridCells(opt.Collectors, factors)
		tickets := make([]*exper.Ticket, len(cells))
		for i, c := range cells {
			tickets[i], err = eng.Submit(d, workload.RunConfig{
				HeapMB:           minMB * c.f,
				Collector:        c.kind,
				Iterations:       opt.Iterations,
				Events:           opt.Events,
				Seed:             opt.Seed,
				RecordLatency:    true,
				OpenLoop:         openLoop,
				OpenLoopHeadroom: headroom,
			})
			if err != nil {
				p.err = err
				return
			}
		}
		out := make([]LatencyResult, len(cells))
		for i, c := range cells {
			lr := LatencyResult{
				Benchmark: d.Name, Collector: c.kind.String(),
				HeapFactor: c.f, HeapMB: minMB * c.f,
			}
			res, err := tickets[i].Wait()
			if err != nil && !outOfMemory(err) {
				p.err = cellError(d, c, err)
				return
			}
			if err == nil {
				events := make([]latency.Event, len(res.Events))
				for j, e := range res.Events {
					events[j] = latency.Event{Start: e.Start, End: e.End}
				}
				lr.Completed = true
				lr.Events = events
				lr.Simple = latency.NewDistribution(latency.Simple(events))
				lr.Metered100 = latency.NewDistribution(latency.Metered(events, 100*1e6))
				lr.MeteredFull = latency.NewDistribution(latency.Metered(events, latency.FullSmoothing))
				lr.Pauses = res.Log.Pauses
				last := res.Last()
				lr.RunStart = last.StartNS
				lr.RunEnd = last.EndNS
			}
			out[i] = lr
		}
		p.out = out
	}()
	return p
}

// HeapSample is one post-GC occupancy observation, relative to the start of
// the timed iteration.
type HeapSample struct {
	TimeSec float64
	UsedMB  float64
}

// HeapTimeline reproduces the appendix heap-size figures: post-GC heap
// occupancy over the last iteration, G1 at 2x the minimum heap.
func HeapTimeline(d *workload.Descriptor, opt Options) ([]HeapSample, error) {
	opt = opt.withDefaults(d)
	eng := opt.engine()
	minMB, err := eng.MinHeapMB(d, opt.minHeapParams())
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(d, workload.RunConfig{
		HeapMB:     2 * minMB,
		Collector:  gc.G1,
		Iterations: opt.Iterations,
		Events:     opt.Events,
		Seed:       opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	last := res.Last()
	var out []HeapSample
	for _, e := range res.Log.Events {
		if e.End < last.StartNS || e.End > last.EndNS {
			continue
		}
		out = append(out, HeapSample{
			TimeSec: float64(e.End-last.StartNS) / 1e9,
			UsedMB:  e.UsedAfter / workload.MB,
		})
	}
	return out, nil
}
