// Command fleet runs the fleet-scale serving simulation: N replicas of one
// workload — each a complete simulated JVM with its own heap, collector and
// JIT warmup — behind a load balancer, fed by a configurable arrival process
// on one deterministic virtual clock. It sweeps the
// (replicas × policy × collector × rate) grid through the experiment engine,
// so cells run in parallel, cache persistently and resume after interruption,
// and reports fleet SLO metrics: tail latency quantiles, the SLA ladder,
// per-configuration critical rates, retry storms and host CPU pressure.
//
// Usage:
//
//	fleet -bench cassandra                           # 3 replicas, every policy
//	fleet -bench kafka -replicas 1,3,6 -lb gc-aware
//	fleet -bench h2 -arrival pareto -retry-after 50
//	fleet -bench lusearch -rates 0.8,1,1.5,2 -collectors g1,z -json
//	fleet -bench cassandra -telemetry fleet.jsonl      # request traces for obsreport
//
// Timelines come from the telemetry stream: obsreport -fleet fleet.jsonl
// prints the request forensics, and obsreport -trace-out fleet.trace.json
// -timeline fleet.jsonl renders each executed cell for Perfetto and the
// terminal. Cached cells record nothing; -cold re-runs them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"chopin/internal/exper"
	"chopin/internal/fleet"
	"chopin/internal/gc"
	"chopin/internal/report"
	"chopin/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "cassandra", "workload to replicate across the fleet")
		replicas   = flag.String("replicas", "3", "comma-separated fleet sizes")
		lbs        = flag.String("lb", "", "comma-separated balancer policies (default: all three)")
		gcsFlag    = flag.String("collectors", "", "comma-separated collectors (default: the config default)")
		rates      = flag.String("rates", "1", "comma-separated open-loop headroom factors (2 = half the nominal rate)")
		arrival    = flag.String("arrival", "constant", "arrival process: constant, poisson, pareto, diurnal or ramp")
		alpha      = flag.Float64("alpha", 0, "pareto tail index (0 = default 1.5)")
		amplitude  = flag.Float64("amplitude", 0, "diurnal modulation depth in [0,1) (0 = default 0.5)")
		rampTo     = flag.Float64("ramp-to", 0, "ramp terminal rate multiplier (0 = default 2)")
		events     = flag.Int("events", 0, "events per replica iteration (0 = workload default)")
		iterations = flag.Int("iterations", 1, "warmup+measure iterations per replica")
		heapFactor = flag.Float64("heap", 2.0, "heap size as a multiple of the workload's minimum")
		seed       = flag.Uint64("seed", 42, "deterministic fleet seed")
		retryMS    = flag.Float64("retry-after", 0, "client timeout in milliseconds; timed-out requests retry (0 disables)")
		maxRetries = flag.Int("max-retries", 0, "retry cap per request (0 = default 3)")
		hostCores  = flag.Int("host-cores", 0, "co-located host core budget (0 = fully provisioned)")
		jsonOut    = flag.Bool("json", false, "emit the raw sweep result as JSON")
	)
	var cli exper.CLI
	cli.RegisterFlags(flag.CommandLine, "")
	flag.Parse()

	// The micro family is reachable too: a fleet of micro-pauseprobe replicas
	// is the fast smoke configuration CI uses.
	d, err := workload.ByName(*benchName)
	if err != nil {
		if md, merr := workload.MicroByName(*benchName); merr == nil {
			d, err = md, nil
		}
	}
	check(err)

	sw := fleet.Sweep{Base: fleet.Config{
		RetryAfterNS: *retryMS * 1e6,
		MaxRetries:   *maxRetries,
		HostCores:    *hostCores,
	}}
	sw.Base.Run.Collector = gc.G1 // serving baseline when -collectors is empty
	sw.Base.Run.HeapMB = *heapFactor * d.MinHeapMB
	sw.Base.Run.Events = *events
	sw.Base.Run.Iterations = *iterations
	sw.Base.Run.Seed = *seed

	kind, err := fleet.ParseArrival(*arrival)
	check(err)
	sw.Base.Arrival = fleet.ArrivalSpec{
		Kind: kind, Alpha: *alpha, Amplitude: *amplitude, RampTo: *rampTo,
	}

	sw.Replicas, err = parseInts(*replicas)
	check(err)
	sw.Policies, err = parsePolicies(*lbs)
	check(err)
	sw.Collectors, err = exper.ParseCollectors(*gcsFlag)
	check(err)
	sw.Rates, err = exper.ParseFactors("-rates", *rates)
	check(err)

	eng, err := cli.Build(os.Stderr, "fleet: ")
	check(err)
	defer cli.CloseOrWarn(os.Stderr, "fleet: ")

	res, err := fleet.RunSweep(eng, d, sw)
	check(err)
	fmt.Fprintf(os.Stderr, "fleet: %s\n", exper.Summary(eng.Stats()))

	if *jsonOut {
		data, err := json.MarshalIndent(res, "", "  ")
		check(err)
		fmt.Println(string(data))
		return
	}
	render(res)
}

// parsePolicies resolves the -lb list; empty means all three policies.
func parsePolicies(s string) ([]fleet.Policy, error) {
	if s == "" {
		return []fleet.Policy{fleet.RoundRobin, fleet.LeastOutstanding, fleet.GCAware}, nil
	}
	var out []fleet.Policy
	for _, part := range strings.Split(s, ",") {
		p, err := fleet.ParsePolicy(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad replica count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// render prints the sweep as two tables: every cell's SLO metrics, then the
// per-configuration critical rates.
func render(res *fleet.Result) {
	fmt.Printf("fleet sweep: %s\n\n", res.Workload)
	cells := report.NewTable("n", "policy", "gc", "rate", "req/s",
		"p50 ms", "p99 ms", "p99.9 ms", "SLA", "retry%", "hostCPU")
	for _, c := range res.Cells {
		if c.OOM {
			cells.AddRowf(c.Replicas, string(c.Policy), c.Collector.String(),
				c.Rate, "OOM", "-", "-", "-", "-", "-", "-")
			continue
		}
		r := c.Report
		sla := "miss"
		if r.MeetsAll() {
			sla = "meet"
		}
		storm := fmt.Sprintf("%.1f", 100*r.RetryRate)
		if r.RetryStorm {
			storm += "!"
		}
		host := fmt.Sprintf("%.2f", r.HostCPU)
		if r.HostSaturated {
			host += "!"
		}
		cells.AddRowf(c.Replicas, string(c.Policy), c.Collector.String(), c.Rate,
			fmt.Sprintf("%.0f", r.OfferedRate),
			fmt.Sprintf("%.2f", r.P50NS/1e6),
			fmt.Sprintf("%.2f", r.P99NS/1e6),
			fmt.Sprintf("%.2f", r.P999NS/1e6),
			sla, storm, host)
	}
	cells.Render(os.Stdout)

	fmt.Println("\ncritical rates (highest swept rate meeting every SLA rung):")
	crit := report.NewTable("n", "policy", "gc", "req/s", "headroom")
	for _, cr := range res.Critical {
		rate := "none"
		if cr.RatePerSec > 0 {
			rate = fmt.Sprintf("%.0f", cr.RatePerSec)
		}
		crit.AddRowf(cr.Replicas, string(cr.Policy), cr.Collector.String(),
			rate, cr.Headroom)
	}
	crit.Render(os.Stdout)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
}
