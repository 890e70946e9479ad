// Command obsreport summarizes a telemetry stream captured with the
// -telemetry flag of the experiment commands: per-collector GC phase-time
// breakdowns, pacer-stall histograms, cache accounting and job totals,
// rendered as aligned ASCII tables. It also audits the stream itself —
// missing run_end terminators, sequence gaps and reordering are reported
// rather than silently skewing the aggregates.
//
// With -trace-out the stream is additionally folded into causal span trees
// (GC cycles owning their pauses, stalls blamed on the throttling cycle)
// and exported as Chrome trace-event JSON for chrome://tracing / Perfetto;
// -timeline renders the same spans as a terminal timeline. A fleet stream
// (fleet -telemetry) renders instead as one cross-replica timeline per cell:
// each replica's GC tracks plus its requests, balancer routes and load.
//
// Usage:
//
//	runbms -plan experiments/kick-the-tires.json -out out -telemetry run.jsonl
//	obsreport run.jsonl
//	obsreport -collector Shenandoah run.jsonl   # restrict to one collector
//	obsreport -trace-out run.trace.json run.jsonl
//	obsreport -timeline run.jsonl
//	obsreport -sched run.jsonl                  # pool utilization table
//	obsreport -fleet fleet.jsonl                # request blame + retry forensics
//	obsreport -trace-out fleet.trace.json -timeline fleet.jsonl  # fleet timelines
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"chopin/internal/obs"
	"chopin/internal/obs/span"
	"chopin/internal/obs/traceview"
	"chopin/internal/report"
)

type phaseKey struct {
	collector string
	phase     string
}

type phaseAgg struct {
	count  int
	stwNS  float64
	cpuNS  float64
	reclMB float64
}

type collectorAgg struct {
	pauseNS   float64
	pauses    int
	stallNS   float64
	stalls    int
	stallHist *obs.Histogram
	degens    int
	ooms      int
}

type jobAgg struct {
	started, finished, failed int
	hits, misses              int
	wallNS, cpuNS             float64
	minHeaps                  int
}

func main() {
	var (
		collectorFilter = flag.String("collector", "", "restrict the report to one collector")
		benchFilter     = flag.String("bench", "", "restrict the report to one benchmark")
		traceOut        = flag.String("trace-out", "", "write causal span timelines (fleet streams: per-cell fleet timelines) as Chrome trace-event JSON to this file")
		timeline        = flag.Bool("timeline", false, "render a terminal span timeline per run (fleet streams: per cell)")
		timelineWidth   = flag.Int("timeline-width", 72, "timeline bar width in cells")
		sched           = flag.Bool("sched", false, "render the engine's scheduler-utilization table (per-worker busy/park, tasks executed, task-queue high-water mark)")
		fleetTables     = flag.Bool("fleet", false, "render fleet request forensics (blame totals, slowest requests, per-replica correlation, retry storms)")
		fleetTop        = flag.Int("fleet-top", 5, "how many slowest requests -fleet lists per run")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		check(err)
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}

	phases := map[phaseKey]*phaseAgg{}
	cols := map[string]*collectorAgg{}
	jobs := jobAgg{}
	runs := map[obs.Name]bool{}
	var total, skipped, samples int
	// Span folding needs the whole (filtered) stream in memory; only pay
	// for it when an export was requested.
	wantSpans := *traceOut != "" || *timeline || *fleetTables
	var kept []obs.Event
	var schedEvents []obs.Event

	col := func(name string) *collectorAgg {
		c := cols[name]
		if c == nil {
			c = &collectorAgg{stallHist: obs.NewHistogram(obs.StallBoundsNS)}
			cols[name] = c
		}
		return c
	}

	info, err := obs.DecodeStream(in, func(e obs.Event) error {
		total++
		if *collectorFilter != "" && e.Collector.String() != *collectorFilter {
			skipped++
			return nil
		}
		if *benchFilter != "" && e.Benchmark.String() != *benchFilter {
			skipped++
			return nil
		}
		if e.Run != 0 {
			runs[e.Run] = true
		}
		if wantSpans {
			kept = append(kept, e)
		}
		switch e.Kind {
		case obs.KindGCPhaseEnd:
			k := phaseKey{e.Collector.String(), e.Phase.String()}
			p := phases[k]
			if p == nil {
				p = &phaseAgg{}
				phases[k] = p
			}
			p.count++
			p.stwNS += e.DurNS
			p.cpuNS += e.CPUNS
			p.reclMB += e.Value / (1 << 20)
		case obs.KindGCPause:
			c := col(e.Collector.String())
			c.pauseNS += e.DurNS
			c.pauses++
		case obs.KindPacerStall:
			c := col(e.Collector.String())
			c.stallNS += e.DurNS
			c.stalls++
			c.stallHist.Observe(e.DurNS)
		case obs.KindDegenerateGC:
			col(e.Collector.String()).degens++
		case obs.KindOOM:
			col(e.Collector.String()).ooms++
		case obs.KindJobStart:
			jobs.started++
		case obs.KindJobFinish:
			if e.Err != 0 {
				jobs.failed++
			} else {
				jobs.finished++
			}
			jobs.wallNS += e.DurNS
			jobs.cpuNS += e.CPUNS
		case obs.KindCacheHit:
			jobs.hits++
		case obs.KindCacheMiss:
			jobs.misses++
		case obs.KindMinHeap:
			jobs.minHeaps++
		case obs.KindSample:
			samples++
		case obs.KindSchedWorker:
			if *sched {
				schedEvents = append(schedEvents, e)
			}
		}
		return nil
	})
	if err != nil {
		// A truncated tail (killed run) still yields a usable prefix; report
		// what decoded and say why it stopped.
		fmt.Fprintf(os.Stderr, "obsreport: stream ended early: %v\n", err)
	}
	if werr := info.Err(); werr != nil {
		// Integrity problems skew every aggregate below; say so up front.
		fmt.Fprintf(os.Stderr, "obsreport: warning: %v\n", werr)
	}

	fmt.Printf("telemetry: %s — %d events", name, total)
	if skipped > 0 {
		fmt.Printf(" (%d filtered out)", skipped)
	}
	if len(runs) > 0 {
		fmt.Printf(", %d runs", len(runs))
	}
	if samples > 0 {
		fmt.Printf(", %d samples", samples)
	}
	fmt.Println()
	if info.Unknown > 0 {
		// Count-and-skip keeps old readers working on streams written by
		// newer builds; say what was skipped so gaps aren't mysterious.
		fmt.Printf("  %d event(s) of unknown kind skipped (stream written by a newer build?)\n", info.Unknown)
	}

	if len(phases) > 0 {
		fmt.Println("\nGC phase breakdown (telemetry sums reproduce the run's log totals):")
		t := report.NewTable("collector", "phase", "count", "stw_ms", "gc_cpu_ms", "reclaimed_mb")
		for _, k := range sortedPhaseKeys(phases) {
			p := phases[k]
			t.AddRowf(k.collector, k.phase, p.count, p.stwNS/1e6, p.cpuNS/1e6, p.reclMB)
		}
		t.Render(os.Stdout)
	}

	if len(cols) > 0 {
		fmt.Println("\nPer-collector STW and pacing:")
		t := report.NewTable("collector", "pauses", "stw_ms", "stalls", "stall_ms", "degenerations", "ooms")
		for _, name := range sortedKeys(cols) {
			c := cols[name]
			t.AddRowf(name, c.pauses, c.pauseNS/1e6, c.stalls, c.stallNS/1e6, c.degens, c.ooms)
		}
		t.Render(os.Stdout)
		for _, name := range sortedKeys(cols) {
			c := cols[name]
			if c.stalls == 0 {
				continue
			}
			fmt.Printf("\n%s pacer-stall histogram (%d stalls, %.2fms total):\n",
				name, c.stalls, c.stallNS/1e6)
			fmt.Print(c.stallHist.String())
		}
	}

	if jobs.started+jobs.hits+jobs.misses+jobs.minHeaps > 0 {
		fmt.Println("\nEngine jobs and cache:")
		t := report.NewTable("metric", "value")
		t.AddRowf("jobs started", jobs.started)
		t.AddRowf("jobs finished", jobs.finished)
		t.AddRowf("jobs failed", jobs.failed)
		t.AddRowf("cache hits", jobs.hits)
		t.AddRowf("cache misses", jobs.misses)
		if looked := jobs.hits + jobs.misses; looked > 0 {
			t.AddRow("cache hit rate", fmt.Sprintf("%.1f%%", 100*float64(jobs.hits)/float64(looked)))
		}
		t.AddRowf("min-heap measurements", jobs.minHeaps)
		t.AddRowf("job wall total (s)", jobs.wallNS/1e9)
		t.AddRowf("job sim-cpu total (s)", jobs.cpuNS/1e9)
		t.Render(os.Stdout)
	}

	if *sched {
		if len(schedEvents) == 0 {
			fmt.Println("\nno scheduler telemetry in stream (engines emit it on Close)")
		} else {
			fmt.Println("\nScheduler utilization (one row per pool worker):")
			obs.WriteSchedTable(os.Stdout, schedEvents)
		}
	}

	var fts []*span.FleetTrace
	if wantSpans {
		fts = span.BuildFleet(kept)
	}
	if *fleetTables {
		if len(fts) == 0 {
			fmt.Println("\nno fleet telemetry in stream (capture with: fleet -bench ... -telemetry file.jsonl; cached cells record nothing, re-run with -cold)")
		}
		for _, ft := range fts {
			renderFleet(ft, *fleetTop)
		}
	}

	if *traceOut != "" || *timeline {
		// A fleet stream renders one cross-replica timeline per cell; any
		// other stream one span tree per run.
		n, what := len(fts), "fleet cell"
		chrome := func(w io.Writer) error { return traceview.WriteFleetChrome(w, fts) }
		text := func(w io.Writer) error { return traceview.WriteFleetTimeline(w, fts, *timelineWidth) }
		if len(fts) == 0 {
			trees := span.Build(kept)
			n, what = len(trees), "run"
			chrome = func(w io.Writer) error { return traceview.WriteChromeTrace(w, trees) }
			text = func(w io.Writer) error { return traceview.WriteTimeline(w, trees, *timelineWidth) }
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			check(err)
			check(chrome(f))
			check(f.Close())
			fmt.Printf("\nwrote %d %s timeline(s) to %s (load in Perfetto or chrome://tracing)\n",
				n, what, *traceOut)
		}
		if *timeline {
			fmt.Println()
			check(text(os.Stdout))
		}
	}
}

// renderFleet prints one fleet run's forensic tables: the blame-decomposed
// latency totals, the slowest requests, the per-replica pause/traffic
// correlation, and — when the run retried — the retry-storm summary.
func renderFleet(ft *span.FleetTrace, top int) {
	name := ft.Run
	if name == "" {
		name = "(fleet)"
	}
	fmt.Printf("\nfleet run %s (%s/%s): %d replicas, %d requests, %d routes, %d retries\n",
		name, ft.Benchmark, ft.Collector, len(ft.Replicas), len(ft.Requests), len(ft.Routes), len(ft.Retries))
	if len(ft.Requests) == 0 {
		return
	}

	bt := span.SumBlame(ft.Requests)
	pct := func(ns int64) string {
		if bt.E2ENS == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(bt.E2ENS))
	}
	fmt.Println("\nwhere the latency went (blame components sum exactly to end-to-end):")
	t := report.NewTable("component", "total_ms", "share")
	t.AddRowf("queueing", float64(bt.QueueNS)/1e6, pct(bt.QueueNS))
	t.AddRowf("gc pauses", float64(bt.GCNS)/1e6, pct(bt.GCNS))
	t.AddRowf("service", float64(bt.ServNS)/1e6, pct(bt.ServNS))
	t.AddRowf("retry overhead", float64(bt.RetryNS)/1e6, pct(bt.RetryNS))
	t.AddRowf("end-to-end", float64(bt.E2ENS)/1e6, "100.0%")
	t.Render(os.Stdout)

	fmt.Printf("\ntop %d slowest requests:\n", top)
	t = report.NewTable("id", "replica", "attempts", "e2e_ms", "queue_ms", "gc_ms", "service_ms", "retry_ms", "pauses")
	for _, q := range span.TopSlowest(ft.Requests, top) {
		t.AddRowf(q.ID, q.Replica, q.Attempts,
			float64(q.E2ENS)/1e6, float64(q.QueueNS)/1e6, float64(q.GCNS)/1e6,
			float64(q.ServNS)/1e6, float64(q.RetryNS)/1e6, q.GCPauses)
	}
	t.Render(os.Stdout)

	fmt.Println("\nper-replica pause/traffic correlation:")
	t = report.NewTable("replica", "routed", "served", "retries", "pauses", "stw_ms", "blamed_gc_ms", "queue_ms", "mean_e2e_ms")
	for _, c := range span.CorrelateReplicas(ft) {
		t.AddRowf(c.Index, c.Routes, c.Requests, c.Retries, c.Pauses,
			float64(c.PauseNS)/1e6, float64(c.BlamedGCNS)/1e6,
			float64(c.QueueNS)/1e6, c.MeanE2ENS/1e6)
	}
	t.Render(os.Stdout)

	if len(ft.Retries) > 0 {
		st := span.SummarizeRetries(ft)
		fmt.Printf("\nretry forensics: %d retries across %d request(s), max depth %d; worst window [%.0fms, %.0fms) saw %d\n",
			st.Total, st.Unique, st.MaxDepth,
			float64(st.PeakWindowStart)/1e6, float64(st.PeakWindowStart+st.WindowNS)/1e6, st.PeakCount)
	}
}

func sortedPhaseKeys(m map[phaseKey]*phaseAgg) []phaseKey {
	out := make([]phaseKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].collector != out[j].collector {
			return out[i].collector < out[j].collector
		}
		return out[i].phase < out[j].phase
	})
	return out
}

func sortedKeys(m map[string]*collectorAgg) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
}
