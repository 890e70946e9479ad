// Package chopin is a Go reproduction of the performance-analysis system
// from "Rethinking Java Performance Analysis" (ASPLOS 2025): the DaCapo
// Chopin benchmark suite and its methodologies, rebuilt over a deterministic
// discrete-event JVM simulator.
//
// The package exposes:
//
//   - the 22 workload models of the suite, calibrated to the paper's
//     published per-benchmark nominal statistics (Benchmarks, Lookup);
//   - five production garbage-collector models — Serial, Parallel, G1,
//     Shenandoah, ZGC — plus Generational ZGC, with the design properties
//     that drive the paper's findings (Collector);
//   - single runs under any (collector, heap, machine, compiler)
//     configuration (Run), and minimum-heap identification (MinHeapMB);
//   - the lower-bound-overhead methodology over collector-by-heap sweeps
//     (MeasureLBO, SuiteLBO — Figures 1 and 5);
//   - user-experienced latency: simple and metered distributions and MMU
//     (MeasureLatency, SimpleLatency, MeteredLatency, MMU — Figures 3
//     and 6);
//   - the 48 nominal statistics with ranking and scoring (Characterize,
//     CharacterizeSuite — Tables 1-3), and PCA over them (SuiteTable.PCA —
//     Figure 4).
//
// Everything runs in virtual time on a modelled machine, so experiments are
// deterministic given a seed and independent of the host.
package chopin

import (
	"io"

	"chopin/internal/cpuarch"
	"chopin/internal/exper"
	"chopin/internal/gc"
	"chopin/internal/gclog"
	"chopin/internal/harness"
	"chopin/internal/jit"
	"chopin/internal/latency"
	"chopin/internal/lbo"
	"chopin/internal/nominal"
	"chopin/internal/obs"
	"chopin/internal/trace"
	"chopin/internal/workload"
)

// Core types, aliased from the implementation packages so their methods and
// fields are part of the public API.
type (
	// Benchmark describes one workload of the suite.
	Benchmark = workload.Descriptor
	// RunConfig selects collector, heap, machine, compiler, iteration and
	// event counts for one invocation.
	RunConfig = workload.RunConfig
	// Result is the outcome of one invocation.
	Result = workload.Result
	// IterationResult is one iteration's measurements.
	IterationResult = workload.IterationResult
	// Event is one timed request/frame.
	Event = workload.Event
	// ErrOutOfMemory reports a heap below the workload's minimum.
	ErrOutOfMemory = workload.ErrOutOfMemory
	// Collector names a garbage-collector design.
	Collector = gc.Kind
	// CollectorParams is a collector configuration preset.
	CollectorParams = gc.Params
	// Machine is a processor model.
	Machine = cpuarch.Machine
	// ArchProfile is a workload's microarchitectural behaviour.
	ArchProfile = cpuarch.Profile
	// CompilerConfig selects a JIT configuration.
	CompilerConfig = jit.Config
	// SweepOptions configures multi-invocation experiment sweeps.
	SweepOptions = harness.Options
	// LBOGrid is a benchmark's (collector, heap) lower-bound-overhead grid.
	LBOGrid = lbo.Grid
	// LBOMeasurement is one cell of an LBOGrid.
	LBOMeasurement = lbo.Measurement
	// LBOOverhead is a normalized overhead cell.
	LBOOverhead = lbo.Overhead
	// GeomeanPoint is one point of the cross-suite Figure 1 curves.
	GeomeanPoint = lbo.GeomeanPoint
	// LatencyResult is one latency-experiment cell.
	LatencyResult = harness.LatencyResult
	// HeapSample is one post-GC occupancy observation.
	HeapSample = harness.HeapSample
	// Distribution is a latency sample with percentile queries.
	Distribution = latency.Distribution
	// LatencyEvent is a timed event in latency computations.
	LatencyEvent = latency.Event
	// GCPause is one stop-the-world interval.
	GCPause = trace.Pause
	// GCLog is a run's garbage-collection telemetry.
	GCLog = trace.Log
	// Characterization is a workload's measured nominal statistics.
	Characterization = nominal.Characterization
	// NominalOptions tunes characterization cost.
	NominalOptions = nominal.Options
	// NominalMetric describes one of the 48 nominal statistics.
	NominalMetric = nominal.Metric
	// SuiteTable is the suite-wide nominal table with ranks and scores.
	SuiteTable = nominal.SuiteTable
	// Size selects an input-size configuration (small/default/large/vlarge).
	Size = workload.Size
	// Setup is a Mytkowicz-style experimental environment whose incidental
	// layout biases measurements (Section 4.3's warning, made demonstrable).
	Setup = workload.Setup
	// Engine is the unified experiment engine: every invocation a
	// content-addressed job on one shared worker pool, with optional
	// persistent result caching for incremental, resumable sweeps. Pass one
	// via SweepOptions.Engine to share it across experiments.
	Engine = exper.Engine
	// EngineOptions configures an Engine (workers, cache, observer,
	// recorder).
	EngineOptions = exper.Options
	// EngineStats is a snapshot of an engine's execution counters.
	EngineStats = exper.Stats
	// EngineEvent is one structured progress notification from an Engine.
	EngineEvent = exper.Event
	// JobTicket is the handle Engine.Submit returns for one in-flight job;
	// Wait blocks for its outcome. Identical concurrent submissions share
	// one execution.
	JobTicket = exper.Ticket
	// MinHeapTicket is the handle for an asynchronous minimum-heap
	// measurement (Engine.SubmitMinHeap) — the anchor job of a sweep's DAG.
	MinHeapTicket = exper.MinHeapTicket
	// PendingLBO is a submitted-but-uncollected LBO sweep (SubmitLBO).
	PendingLBO = harness.PendingGrid
	// PendingSuiteLBO is a submitted whole-suite LBO plan (SubmitSuiteLBO).
	PendingSuiteLBO = harness.PendingSuite
	// PendingLatency is a submitted-but-uncollected latency sweep
	// (SubmitLatency).
	PendingLatency = harness.PendingLatency
	// ResultCache is the content-addressed invocation-level result store.
	ResultCache = exper.Cache
	// CacheMode selects how an engine uses its ResultCache.
	CacheMode = exper.CacheMode
	// Recorder receives structured run telemetry (GC phases, pacer stalls,
	// job lifecycle, cache accounting). A sweep records through its
	// engine: set EngineOptions.Recorder and pass the engine as
	// SweepOptions.Engine. RunConfig.Recorder serves a direct Run only; an
	// engine refuses a job that carries one. NewJSONLRecorder builds the
	// standard file sink.
	Recorder = obs.Recorder
	// TelemetryEvent is one structured telemetry record. It holds no
	// pointers: its Run, Benchmark, Collector, Phase and Err fields are
	// TelemetryNames, handles into a process-wide intern table (String gives
	// the text, InternTelemetryName makes one), and they marshal to JSON as
	// the strings they name.
	TelemetryEvent = obs.Event
	// TelemetryName is an interned name on a TelemetryEvent. Its numeric
	// value depends on the order names were interned in, so compare Names
	// for equality and order them by String, never by number.
	TelemetryName = obs.Name
	// TelemetryKind classifies a TelemetryEvent.
	TelemetryKind = obs.Kind
	// JSONLRecorder streams telemetry as one JSON object per line — the
	// format cmd/obsreport summarizes.
	JSONLRecorder = obs.JSONL
	// TelemetryStreamInfo summarizes a decoded stream's integrity: whether
	// it terminated with a clean run_end, and any sequence gaps or
	// reordering (DecodeTelemetryStream).
	TelemetryStreamInfo = obs.StreamInfo
)

// Cache modes: CacheReadWrite resumes from cached results; CacheWriteOnly
// forces a cold re-run while still recording fresh results.
const (
	CacheReadWrite = exper.ReadWrite
	CacheWriteOnly = exper.WriteOnly
)

// NewEngine builds an experiment engine and starts its worker pool.
func NewEngine(opt EngineOptions) *Engine { return exper.New(opt) }

// OpenResultCache opens (creating if necessary) a result cache rooted at
// dir, for EngineOptions.Cache.
func OpenResultCache(dir string, mode CacheMode) (*ResultCache, error) {
	return exper.OpenCache(dir, mode)
}

// NopRecorder is the disabled Recorder: it costs one boolean check on every
// potential emission and records nothing.
var NopRecorder = obs.Nop

// InternTelemetryName returns the TelemetryName of s, for setting or
// matching the name fields of a TelemetryEvent. Names live as long as the
// process.
func InternTelemetryName(s string) TelemetryName { return obs.Intern(s) }

// NewJSONLRecorder builds a Recorder that streams events to w as JSON lines.
// Call Close to write out recorded events and stop its writer goroutine
// before discarding it (Close does not close w).
func NewJSONLRecorder(w io.Writer) *JSONLRecorder { return obs.NewJSONL(w) }

// DecodeTelemetry reads a JSONL telemetry stream, calling fn per event.
func DecodeTelemetry(r io.Reader, fn func(TelemetryEvent) error) error {
	return obs.DecodeJSONL(r, fn)
}

// DecodeTelemetryStream is DecodeTelemetry with an integrity audit: the
// returned TelemetryStreamInfo reports whether the stream ended with a
// clean run_end terminator and counts dropped or reordered events, so a
// crash-truncated capture is distinguishable from a short run.
func DecodeTelemetryStream(r io.Reader, fn func(TelemetryEvent) error) (TelemetryStreamInfo, error) {
	return obs.DecodeStream(r, fn)
}

// RandomizedSetups draws n experimental environments — measuring across them
// is the standard mitigation for layout bias.
func RandomizedSetups(n int, seed uint64) []Setup {
	return workload.RandomizedSetups(n, seed)
}

// Input sizes. Benchmark.Scaled(SizeLarge) returns the scaled workload.
const (
	SizeDefault = workload.SizeDefault
	SizeSmall   = workload.SizeSmall
	SizeLarge   = workload.SizeLarge
	SizeVLarge  = workload.SizeVLarge
)

// ParseSize resolves a size configuration by name.
func ParseSize(name string) (Size, error) { return workload.ParseSize(name) }

// The garbage collectors of OpenJDK 21, in introduction order, plus the
// Generational ZGC extension.
const (
	Serial     = gc.Serial
	Parallel   = gc.Parallel
	G1         = gc.G1
	Shenandoah = gc.Shenandoah
	ZGC        = gc.ZGC
	GenZGC     = gc.GenZGC
)

// Compiler configurations (Recommendation P1 / nominal stats PIN, PCC, PCS).
const (
	Tiered          = jit.Tiered
	InterpreterOnly = jit.InterpreterOnly
	ForcedC2        = jit.ForcedC2
	WorstTier       = jit.WorstTier
)

// Machine models: the paper's reference AMD Zen4 testbed and the two
// cross-architecture comparison machines.
var (
	Zen4       = cpuarch.Zen4
	GoldenCove = cpuarch.GoldenCove
	NeoverseN1 = cpuarch.NeoverseN1
)

// Collectors lists the paper's five production collectors.
var Collectors = gc.Kinds

// AllCollectors additionally includes GenZGC.
var AllCollectors = gc.AllKinds

// ParseCollector resolves a collector by name.
func ParseCollector(name string) (Collector, error) { return gc.ParseKind(name) }

// ShenandoahMode selects one of Shenandoah's heuristics (the real
// collector's -XX:ShenandoahGCHeuristics options).
type ShenandoahMode = gc.ShenandoahMode

// Shenandoah heuristics.
const (
	ShenAdaptive   = gc.ShenAdaptive
	ShenStatic     = gc.ShenStatic
	ShenCompact    = gc.ShenCompact
	ShenAggressive = gc.ShenAggressive
)

// ShenandoahParams returns Shenandoah configured with the given heuristic,
// for use as RunConfig.CollectorParams.
func ShenandoahParams(mode ShenandoahMode, cores int) CollectorParams {
	return gc.ShenandoahParams(mode, cores)
}

// Benchmarks returns the 22 workloads of the suite in name order.
func Benchmarks() []*Benchmark { return workload.All() }

// LatencyBenchmarks returns the nine latency-sensitive workloads.
func LatencyBenchmarks() []*Benchmark { return workload.LatencySensitive() }

// BenchmarkNames returns all workload names in order.
func BenchmarkNames() []string { return workload.Names() }

// Lookup returns the named workload.
func Lookup(name string) (*Benchmark, error) { return workload.ByName(name) }

// Run executes one invocation of the benchmark under cfg.
func Run(b *Benchmark, cfg RunConfig) (*Result, error) { return workload.Run(b, cfg) }

// MinHeapMB measures the benchmark's minimum viable heap under the baseline
// G1 configuration — the denominator for all heap-factor sweeps
// (Recommendation H2).
func MinHeapMB(b *Benchmark, opt SweepOptions) (float64, error) {
	return harness.MinHeapMB(b, opt)
}

// MeasureLBO sweeps collectors and heap factors for one benchmark and
// returns its lower-bound-overhead grid and the measured minimum heap
// (Figure 5 and the appendix LBO figures).
func MeasureLBO(b *Benchmark, opt SweepOptions) (*LBOGrid, float64, error) {
	return harness.LBOGrid(b, opt)
}

// SuiteLBO measures LBO grids for the given benchmarks (nil = whole suite;
// an empty list is an error) and the cross-suite geometric-mean curves of
// Figure 1.
func SuiteLBO(bs []*Benchmark, opt SweepOptions) ([]*LBOGrid, []GeomeanPoint, error) {
	return harness.SuiteLBO(bs, opt)
}

// SubmitLBO registers one benchmark's whole LBO sweep as a job DAG — the
// min-heap measurement as anchor, every grid cell batched behind it — and
// returns immediately. Submit several sweeps before waiting on any to run a
// whole plan at host-core saturation; merged results are deterministic at
// any worker count.
func SubmitLBO(b *Benchmark, opt SweepOptions) *PendingLBO {
	return harness.SubmitLBOGrid(b, opt)
}

// SubmitSuiteLBO registers the whole suite's LBO plan (nil = every
// benchmark; an empty list is an error from Wait) as one up-front batch of
// job DAGs.
func SubmitSuiteLBO(bs []*Benchmark, opt SweepOptions) *PendingSuiteLBO {
	return harness.SubmitSuiteLBO(bs, opt)
}

// SubmitLatency registers the latency experiment of Figures 3 and 6 as a
// job DAG and returns immediately (nil factors = the paper's 2x and 6x).
func SubmitLatency(b *Benchmark, factors []float64, opt SweepOptions) *PendingLatency {
	return harness.SubmitLatency(b, factors, opt)
}

// MeasureLatency runs the latency experiment of Figures 3 and 6 at the
// given heap factors (nil = the paper's 2x and 6x).
func MeasureLatency(b *Benchmark, factors []float64, opt SweepOptions) ([]LatencyResult, error) {
	return harness.Latency(b, factors, opt)
}

// MeasureLatencyOpenLoop runs the latency experiment with the open-loop
// request discipline (scheduled arrivals, queueing): the ground truth that
// metered latency approximates. headroom stretches the arrival interval
// (2.0 = drive at half the nominal rate, safely below saturation).
func MeasureLatencyOpenLoop(b *Benchmark, factors []float64, headroom float64, opt SweepOptions) ([]LatencyResult, error) {
	return harness.LatencyOpenLoop(b, factors, headroom, opt)
}

// HeapTimeline samples post-GC heap occupancy over the timed iteration with
// G1 at 2x the minimum heap (the appendix heap figures).
func HeapTimeline(b *Benchmark, opt SweepOptions) ([]HeapSample, error) {
	return harness.HeapTimeline(b, opt)
}

// Characterize measures the benchmark's nominal statistics.
func Characterize(b *Benchmark, opt NominalOptions) (*Characterization, error) {
	return nominal.Characterize(b, opt)
}

// CharacterizeSuite characterizes every given benchmark (nil = whole suite),
// one goroutine per benchmark, and assembles the ranked suite table behind
// Tables 2-3 and Figure 4.
func CharacterizeSuite(bs []*Benchmark, opt NominalOptions) (*SuiteTable, error) {
	if bs == nil {
		bs = workload.All()
	}
	chars, err := nominal.CharacterizeSuite(bs, opt)
	if err != nil {
		return nil, err
	}
	return nominal.BuildSuite(chars), nil
}

// NominalMetrics lists the 48 nominal statistics of Table 1.
func NominalMetrics() []NominalMetric { return nominal.Metrics }

// Table2Metrics is the paper's Table 2 selection of the twelve most
// determinant nominal statistics.
var Table2Metrics = nominal.Table2Metrics

// FullSmoothing selects the uniform-arrival limit of metered latency.
const FullSmoothing = latency.FullSmoothing

// SimpleLatency returns per-event simple latencies.
func SimpleLatency(events []LatencyEvent) []float64 { return latency.Simple(events) }

// MeteredLatency returns per-event metered latencies under the given
// smoothing window in nanoseconds (FullSmoothing for uniform arrivals).
func MeteredLatency(events []LatencyEvent, windowNS float64) []float64 {
	return latency.Metered(events, windowNS)
}

// NewDistribution builds a percentile-queryable distribution.
func NewDistribution(vals []float64) *Distribution { return latency.NewDistribution(vals) }

// MMU computes minimum mutator utilization for the window size, from a
// run's pause log.
func MMU(pauses []GCPause, runStart, runEnd int64, windowNS float64) float64 {
	return latency.MMU(pauses, runStart, runEnd, windowNS)
}

// SLA is a latency service-level agreement for CriticalJOPS.
type SLA = latency.SLA

// DefaultSLAs is the SPECjbb2015-style SLA ladder (p99 from 10ms to 100ms).
var DefaultSLAs = latency.DefaultSLAs

// CriticalJOPS computes a SPECjbb2015-style critical-jOPS score — the
// geometric mean of the highest throughput sustaining each SLA — from a
// latency run (Section 3.2 of the paper discusses the metric).
func CriticalJOPS(events []LatencyEvent, slas []SLA) float64 {
	return latency.CriticalJOPS(events, slas)
}

// FormatGCLog renders a run's GC telemetry in OpenJDK unified-logging style
// (-Xlog:gc shape); capacityMB is the heap size shown per line.
func FormatGCLog(l *GCLog, capacityMB float64) string {
	return gclog.Format(l, capacityMB)
}

// ParseGCLog reconstructs GC telemetry from unified-logging text, returning
// the log and the heap capacity it records.
func ParseGCLog(text string) (*GCLog, float64, error) { return gclog.Parse(text) }

// SummarizeGCLog produces a one-line human summary of a run's collections.
func SummarizeGCLog(l *GCLog) string { return gclog.Summarize(l) }

// ToLatencyEvents converts a run's recorded events for the latency
// functions.
func ToLatencyEvents(events []Event) []LatencyEvent {
	out := make([]LatencyEvent, len(events))
	for i, e := range events {
		out[i] = LatencyEvent{Start: e.Start, End: e.End}
	}
	return out
}
