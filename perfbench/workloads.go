package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"chopin/internal/exper"
	"chopin/internal/fleet"
	"chopin/internal/gc"
	"chopin/internal/harness"
	"chopin/internal/lbo"
	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/obs/traceview"
	"chopin/internal/workload"
)

// size is how much work one rep of each workload does. full is what the
// benchmark measures; tiny keeps the smoke test fast.
type size struct {
	// suite plan: LBO grids for batch+latency benchmarks, latency sweeps
	// for the latency-sensitive ones.
	batch, latency []string
	factors        []float64
	latFactors     []float64
	invocations    int
	iterations     int
	events         int
	collectors     []gc.Kind // nil: the paper's five

	// fleet-serve sweep.
	replicas    []int
	policies    []fleet.Policy
	rates       []float64
	fleetEvents int // events per replica iteration (0: workload default)
	// fleet-trace run.
	traceReplicas int
	traceEvents   int
}

var sizes = map[string]size{
	"full": {
		batch:       []string{"fop", "lusearch"},
		latency:     []string{"cassandra", "h2"},
		factors:     []float64{1.5, 2, 3, 6},
		latFactors:  []float64{2, 6},
		invocations: 1, iterations: 2, events: 150,
		replicas:      []int{16, 64},
		policies:      []fleet.Policy{fleet.RoundRobin, fleet.LeastOutstanding, fleet.GCAware},
		rates:         []float64{1.5, 2},
		traceReplicas: 16,
		traceEvents:   2000,
	},
	"tiny": {
		batch:       []string{"fop"},
		latency:     []string{"h2"},
		factors:     []float64{2, 6},
		latFactors:  []float64{2},
		invocations: 1, iterations: 1, events: 60,
		collectors:    []gc.Kind{gc.Serial, gc.G1},
		replicas:      []int{2},
		policies:      []fleet.Policy{fleet.RoundRobin, fleet.GCAware},
		rates:         []float64{2},
		fleetEvents:   200,
		traceReplicas: 2,
		traceEvents:   200,
	},
}

// benchWorkload is one workload: setup prepares inputs and any reference
// outputs the checks need, ops is how many operations a rep attempts, and
// rep runs the timed section once and checks its output.
type benchWorkload interface {
	setup(e *env) error
	ops() int
	rep(e *env) (*repOut, error)
}

func newWorkload(name string, sz size, seed uint64) (benchWorkload, error) {
	switch name {
	case "suite-cold":
		p, err := newSuitePlan(sz, seed)
		return &suiteCold{plan: p}, err
	case "suite-warm":
		p, err := newSuitePlan(sz, seed)
		return &suiteWarm{plan: p}, err
	case "fleet-serve":
		return newFleetServe(sz, seed)
	case "fleet-trace":
		return newFleetTrace(sz, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want suite-cold, suite-warm, fleet-serve or fleet-trace)", name)
}

// ---- suite plans -------------------------------------------------------

// suitePlan is a reduced version of the paper's plan: LBO grids over every
// benchmark plus latency sweeps over the latency-sensitive ones, all
// submitted up front on one engine.
type suitePlan struct {
	all, latency []*workload.Descriptor
	opt          harness.Options
	latFactors   []float64
	cells        int
}

func newSuitePlan(sz size, seed uint64) (*suitePlan, error) {
	p := &suitePlan{
		opt: harness.Options{
			Collectors:  sz.collectors,
			HeapFactors: sz.factors,
			Invocations: sz.invocations,
			Iterations:  sz.iterations,
			Events:      sz.events,
			Seed:        seed,
		},
		latFactors: sz.latFactors,
	}
	for _, n := range append(append([]string(nil), sz.batch...), sz.latency...) {
		d, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		p.all = append(p.all, d)
	}
	p.latency = p.all[len(sz.batch):]
	ncol := len(gc.Kinds)
	if sz.collectors != nil {
		ncol = len(sz.collectors)
	}
	p.cells = ncol * (len(p.all)*len(sz.factors) + len(p.latency)*len(sz.latFactors))
	return p, nil
}

// suiteOutput is a plan's merged output, the value its digest covers.
type suiteOutput struct {
	Grids    []*lbo.Grid
	Geomeans []lbo.GeomeanPoint
	Latency  [][]harness.LatencyResult
}

func (o *suiteOutput) cells() int {
	n := 0
	for _, g := range o.Grids {
		n += len(g.Cells)
	}
	for _, l := range o.Latency {
		n += len(l)
	}
	return n
}

// run executes the plan once on a fresh cache at dir and a fresh engine,
// timing from opening the cache to the return of Engine.Close.
func (p *suitePlan) run(e *env, dir string, mode exper.CacheMode) (*repOut, error) {
	r := &repOut{layer: map[string]float64{}}
	sp := e.spans
	e.start(r)
	root := sp.begin("suite-plan", "harness", 0)

	var cache *exper.Cache
	var err error
	openDur := sp.call("exper.OpenCache", "exper", root, func() { cache, err = exper.OpenCache(dir, mode) })
	if err != nil {
		e.stop(r)
		return nil, err
	}
	opt := exper.Options{Workers: e.workers, Cache: cache}
	if e.jobs != nil {
		opt.Observer = e.jobs.observe
	}
	var eng *exper.Engine
	sp.call("exper.New", "exper", root, func() { eng = exper.New(opt) })

	out := &suiteOutput{}
	submitAt := time.Now()
	var pending *harness.PendingSuite
	var lats []*harness.PendingLatency
	sp.call("harness.Submit", "harness", root, func() {
		o := p.opt
		o.Engine = eng
		pending = harness.SubmitSuiteLBO(p.all, o)
		for _, d := range p.latency {
			lats = append(lats, harness.SubmitLatency(d, p.latFactors, o))
		}
	})
	var planErr error
	sp.call("harness.Wait", "harness", root, func() {
		out.Grids, out.Geomeans, planErr = pending.Wait()
		for _, l := range lats {
			res, err := l.Wait()
			if err != nil && planErr == nil {
				planErr = err
			}
			out.Latency = append(out.Latency, res)
		}
	})
	collectedAt := time.Now()
	var closeErr error
	closeDur := sp.call("exper.Close", "exper", root, func() {
		closeErr = errors.Join(eng.Close(), cache.Close())
	})
	sp.end(root)
	e.stop(r)
	if err := errors.Join(planErr, closeErr); err != nil {
		return nil, err
	}

	st := eng.Stats()
	r.counts = map[string]int64{
		"exper.executed":   st.Executed,
		"exper.cache_hits": st.CacheHits,
		"exper.ooms":       st.OOMs,
		"harness.cells":    int64(out.cells()),
	}
	r.info = map[string]int64{"exper.deduped": st.Deduped, "exper.memo_hits": st.MemoHits}
	r.layer["exper.executed"] = float64(st.Executed)
	r.layer["exper.cache_hits"] = float64(st.CacheHits)
	r.layer["exper.ooms"] = float64(st.OOMs)
	r.layer["harness.cells"] = float64(out.cells())
	r.layer["exper.cache_open_s"] = openDur.Seconds()
	r.layer["exper.close_s"] = closeDur.Seconds()
	if bytes, err := dirBytes(dir); err == nil {
		r.layer["exper.cache_mb"] = float64(bytes) / (1 << 20)
	} else {
		return nil, err
	}
	if l := e.jobs; l != nil {
		wall := r.end.wall.Sub(r.begin.wall)
		late := l.lateJobs(collectedAt)
		submissions := l.nQueued + st.Deduped + st.MemoHits
		r.info["exper.submissions"] = submissions
		r.layer["exper.submissions"] = float64(submissions)
		r.layer["exper.late_jobs"] = float64(late)
		if st.Executed > 0 {
			r.layer["exper.late_ratio"] = float64(late) / float64(st.Executed)
		}
		r.layer["exper.queue_wait_ms.p50"] = quantile(l.queueMS, 0.5)
		r.layer["exper.queue_wait_ms.p95"] = quantile(l.queueMS, 0.95)
		r.layer["exper.run_ms.p50"] = quantile(l.runMS, 0.5)
		r.layer["exper.run_ms.p95"] = quantile(l.runMS, 0.95)
		r.layer["exper.busy_frac"] = float64(l.runTotal) / (float64(wall) * float64(e.workers))
		r.layer["exper.hit_ms.p50"] = quantile(l.hitMS, 0.5)
		r.layer["exper.hit_ms.p90"] = quantile(l.hitMS, 0.9)
		r.layer["harness.collect_s"] = collectedAt.Sub(l.lastEventBefore(collectedAt)).Seconds()
		var anchors []float64
		for _, t := range l.anchors {
			anchors = append(anchors, t.Sub(submitAt).Seconds())
		}
		r.layer["harness.anchor_s.p50"] = median(anchors)
		r.layer["harness.anchor_s.max"] = maxOf(anchors)
	}
	r.ops = out.cells()
	r.digest = digest(out)
	if r.ops != p.cells {
		r.problem = fmt.Errorf("plan collected %d cells, want %d", r.ops, p.cells)
	}
	return r, nil
}

// suiteCold runs the plan with every job executed: the cache is write-only,
// so nothing is read back, but every result is serialized to disk.
type suiteCold struct {
	plan *suitePlan
	n    int
}

func (w *suiteCold) setup(e *env) error { return nil }
func (w *suiteCold) ops() int           { return w.plan.cells }

func (w *suiteCold) rep(e *env) (*repOut, error) {
	w.n++
	dir := filepath.Join(e.work, "cold-"+strconv.Itoa(w.n))
	defer os.RemoveAll(dir)
	return w.plan.run(e, dir, exper.WriteOnly)
}

// suiteWarm resumes the same plan from the cache its setup filled: a fresh
// cache handle and a fresh engine per rep, no simulation at all.
type suiteWarm struct {
	plan *suitePlan
	dir  string
	ref  string // digest of the cold plan that filled the cache
}

func (w *suiteWarm) ops() int { return w.plan.cells }

func (w *suiteWarm) setup(e *env) error {
	w.dir = filepath.Join(e.work, "warm-cache")
	r, err := w.plan.run(e, w.dir, exper.WriteOnly)
	if err != nil {
		return fmt.Errorf("filling the cache: %w", err)
	}
	if r.problem != nil {
		return fmt.Errorf("filling the cache: %w", r.problem)
	}
	w.ref = r.digest
	return nil
}

func (w *suiteWarm) rep(e *env) (*repOut, error) {
	r, err := w.plan.run(e, w.dir, exper.ReadWrite)
	if err != nil {
		return nil, err
	}
	if r.problem == nil && r.digest != w.ref {
		r.problem = fmt.Errorf("warm output %s differs from the cold output %s", r.digest, w.ref)
	}
	if r.problem == nil && r.counts["exper.executed"] != 0 {
		r.problem = fmt.Errorf("warm resume executed %d jobs, want 0", r.counts["exper.executed"])
	}
	return r, nil
}

// ---- fleet -------------------------------------------------------------

// fleetServe is the cmd/fleet path: a sweep of fleet cells on an engine
// with no cache.
type fleetServe struct {
	d     *workload.Descriptor
	sweep fleet.Sweep
	cells int
}

func newFleetServe(sz size, seed uint64) (*fleetServe, error) {
	d, err := workload.ByName("cassandra")
	if err != nil {
		return nil, err
	}
	sw := fleet.Sweep{
		Replicas: sz.replicas,
		Policies: sz.policies,
		Rates:    sz.rates,
		Base: fleet.Config{
			Arrival: fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson},
		},
	}
	sw.Base.Run.Collector = gc.G1
	sw.Base.Run.HeapMB = 2 * d.MinHeapMB
	sw.Base.Run.Iterations = 1
	sw.Base.Run.Events = sz.fleetEvents
	sw.Base.Run.Seed = seed
	return &fleetServe{d: d, sweep: sw, cells: len(sz.replicas) * len(sz.policies) * len(sz.rates)}, nil
}

func (w *fleetServe) setup(e *env) error { return nil }
func (w *fleetServe) ops() int           { return w.cells }

func (w *fleetServe) rep(e *env) (*repOut, error) {
	r := &repOut{layer: map[string]float64{}}
	sp := e.spans
	e.start(r)
	root := sp.begin("fleet-sweep", "fleet", 0)
	opt := exper.Options{Workers: e.workers}
	if e.jobs != nil {
		opt.Observer = e.jobs.observe
	}
	var eng *exper.Engine
	sp.call("exper.New", "exper", root, func() { eng = exper.New(opt) })
	var res *fleet.Result
	var err error
	sp.call("fleet.RunSweep", "fleet", root, func() { res, err = fleet.RunSweep(eng, w.d, w.sweep) })
	var closeErr error
	closeDur := sp.call("exper.Close", "exper", root, func() { closeErr = eng.Close() })
	sp.end(root)
	e.stop(r)
	if err := errors.Join(err, closeErr); err != nil {
		return nil, err
	}

	var completions, retries int64
	for _, c := range res.Cells {
		if c.Report != nil {
			completions += c.Report.Completions
			retries += c.Report.Retries
		}
	}
	st := eng.Stats()
	r.ops = len(res.Cells)
	r.counts = map[string]int64{
		"exper.executed":    st.Executed,
		"fleet.completions": completions,
		"fleet.retries":     retries,
	}
	r.info = map[string]int64{"exper.deduped": st.Deduped, "exper.memo_hits": st.MemoHits}
	r.layer["exper.executed"] = float64(st.Executed)
	r.layer["exper.close_s"] = closeDur.Seconds()
	r.layer["fleet.completions"] = float64(completions)
	r.layer["fleet.retries"] = float64(retries)
	if l := e.jobs; l != nil {
		r.layer["fleet.cell_s.p50"] = quantile(l.runMS, 0.5) / 1e3
		r.layer["fleet.cell_s.max"] = maxOf(l.runMS) / 1e3
		r.layer["fleet.host_ns_per_request"] = float64(l.runTotal) / float64(completions)
		r.layer["exper.run_ms.p50"] = quantile(l.runMS, 0.5)
		r.layer["exper.run_ms.p95"] = quantile(l.runMS, 0.95)
		r.layer["exper.queue_wait_ms.p50"] = quantile(l.queueMS, 0.5)
		r.layer["exper.queue_wait_ms.p95"] = quantile(l.queueMS, 0.95)
		wall := r.end.wall.Sub(r.begin.wall)
		r.layer["exper.busy_frac"] = float64(l.runTotal) / (float64(wall) * float64(e.workers))
		r.layer["exper.submissions"] = float64(l.nQueued + st.Deduped + st.MemoHits)
	}
	r.digest = digest(res)
	if r.ops != w.cells {
		r.problem = fmt.Errorf("sweep returned %d cells, want %d", r.ops, w.cells)
	}
	return r, nil
}

// fleetTrace is the fleet -telemetry -> obsreport -fleet -trace-out round
// trip in memory: a traced fleet run, the stream decoded and audited, the
// cross-replica trace assembled, and both renderings written.
type fleetTrace struct {
	d         *workload.Descriptor
	cfg       fleet.Config
	refReport []byte // the same run's report with the recorder off
	requests  int
}

func newFleetTrace(sz size, seed uint64) (*fleetTrace, error) {
	d, err := workload.ByName("cassandra")
	if err != nil {
		return nil, err
	}
	cfg := fleet.Config{
		Replicas:     sz.traceReplicas,
		Policy:       fleet.GCAware,
		Arrival:      fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson},
		RetryAfterNS: traceRetryAfterNS,
	}
	cfg.Run.Collector = gc.G1
	cfg.Run.HeapMB = 2 * d.MinHeapMB
	cfg.Run.Iterations = 1
	cfg.Run.Events = sz.traceEvents
	cfg.Run.OpenLoopHeadroom = 2
	cfg.Run.Seed = seed
	return &fleetTrace{d: d, cfg: cfg}, nil
}

// traceRetryAfterNS is the client timeout of the traced run: just above the
// fleet's p99 latency, so the requests that long GC pauses delay retry and
// the retry layer is exercised without a retry storm.
const traceRetryAfterNS = 150e6

func (w *fleetTrace) ops() int { return w.requests }

func (w *fleetTrace) setup(e *env) error {
	rep, err := fleet.Run(w.d, w.cfg, obs.Nop)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	w.refReport, err = json.Marshal(rep)
	w.requests = rep.Requests
	return err
}

// hashWriter counts and hashes what a renderer writes, so the rendered
// bytes are checked without being held in memory.
type hashWriter struct {
	h hash.Hash
	n int64
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *fleetTrace) rep(e *env) (*repOut, error) {
	r := &repOut{layer: map[string]float64{}}
	sp := e.spans
	e.start(r)
	root := sp.begin("fleet-trace", "fleet", 0)

	var stream bytes.Buffer
	var rep *fleet.Report
	var runErr error
	recordDur := sp.call("fleet.Run+obs.JSONL", "fleet", root, func() {
		rec := obs.NewJSONL(&stream)
		rep, runErr = fleet.Run(w.d, w.cfg, rec)
		runErr = errors.Join(runErr, rec.Close())
	})
	var events []obs.Event
	var info obs.StreamInfo
	var decErr error
	decodeDur := sp.call("obs.DecodeStream", "obs", root, func() {
		info, decErr = obs.DecodeStream(bytes.NewReader(stream.Bytes()), func(ev obs.Event) error {
			events = append(events, ev)
			return nil
		})
	})
	var fts []*span.FleetTrace
	buildDur := sp.call("span.BuildFleet", "obs", root, func() { fts = span.BuildFleet(events) })
	chrome := &hashWriter{h: sha256.New()}
	timeline := &hashWriter{h: sha256.New()}
	var renderErr error
	renderDur := sp.call("traceview.WriteFleet", "obs", root, func() {
		renderErr = errors.Join(
			traceview.WriteFleetChrome(chrome, fts),
			traceview.WriteFleetTimeline(timeline, fts, 72))
	})
	sp.end(root)
	e.stop(r)
	// Errors are checked only here, so a failed step never leaves the
	// profiler running; the steps after it see a partial input.
	if err := errors.Join(runErr, decErr, renderErr); err != nil {
		return nil, err
	}

	r.layer["obs.record_s"] = recordDur.Seconds()
	r.layer["obs.events"] = float64(info.Events)
	r.layer["obs.jsonl_mb"] = float64(stream.Len()) / (1 << 20)
	r.layer["obs.decode_s"] = decodeDur.Seconds()
	r.layer["span.build_s"] = buildDur.Seconds()
	r.layer["traceview.render_s"] = renderDur.Seconds()
	r.layer["traceview.mb"] = float64(chrome.n+timeline.n) / (1 << 20)
	r.layer["fleet.cell_s.p50"] = recordDur.Seconds()
	r.layer["fleet.cell_s.max"] = recordDur.Seconds()
	r.layer["fleet.completions"] = float64(rep.Completions)
	r.layer["fleet.retries"] = float64(rep.Retries)
	if rep.Completions > 0 {
		r.layer["fleet.host_ns_per_request"] = float64(recordDur) / float64(rep.Completions)
	}
	r.counts = map[string]int64{
		"obs.events":        info.Events,
		"fleet.completions": rep.Completions,
		"fleet.retries":     rep.Retries,
	}
	got, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	var reqs []span.FleetRequest
	if len(fts) == 1 {
		reqs = fts[0].Requests
	}
	r.ops = len(reqs)
	r.digest = digest(rep, hex.EncodeToString(chrome.h.Sum(nil)), hex.EncodeToString(timeline.h.Sum(nil)))
	r.problem = w.check(got, info, fts)
	return r, nil
}

// check verifies the round trip: tracing must not change the report, the
// stream must decode clean, and every request's blame must add up to its
// end-to-end latency exactly.
func (w *fleetTrace) check(report []byte, info obs.StreamInfo, fts []*span.FleetTrace) error {
	if !bytes.Equal(report, w.refReport) {
		return errors.New("the traced report differs from the report with the recorder off")
	}
	if err := info.Err(); err != nil {
		return err
	}
	if info.Unknown != 0 || info.Unsequenced != 0 {
		return fmt.Errorf("stream has %d unknown and %d unsequenced events", info.Unknown, info.Unsequenced)
	}
	if len(fts) != 1 {
		return fmt.Errorf("assembled %d fleet traces, want 1", len(fts))
	}
	reqs := fts[0].Requests
	if len(reqs) != w.requests {
		return fmt.Errorf("traced %d requests, want %d", len(reqs), w.requests)
	}
	for _, q := range reqs {
		t := span.SumBlame([]span.FleetRequest{q})
		if t.QueueNS+t.GCNS+t.ServNS+t.RetryNS != q.E2ENS || q.End-q.Start != q.E2ENS {
			return fmt.Errorf("request %d: blame %d+%d+%d+%d and span %d do not equal latency %d",
				q.ID, t.QueueNS, t.GCNS, t.ServNS, t.RetryNS, q.End-q.Start, q.E2ENS)
		}
	}
	return nil
}
