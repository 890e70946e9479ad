package fleet

import (
	"encoding/json"
	"errors"
	"fmt"

	"chopin/internal/exper"
	"chopin/internal/gc"
	"chopin/internal/obs"
	"chopin/internal/workload"
)

// Sweeps: the fleet experiment grid, (replicas × policy × collector × rate),
// run through the experiment engine so cells execute in parallel on the
// shared worker pool, identical cells deduplicate, and completed cells
// survive process death in the persistent cache (exper generic jobs). Cells
// are submitted up front and collected in grid order, so merged results are
// deterministic regardless of scheduling.

// jobKind is the generic-job namespace fleet cells are cached under.
const jobKind = "fleet"

// Sweep parameterizes a fleet grid over one workload. Base supplies
// everything the axes do not override.
type Sweep struct {
	// Replicas, Policies, Collectors and Rates are the grid axes; empty
	// axes default to the Base config's value (one cell along that axis).
	// Rates are open-loop headroom factors — arrival intervals stretch by
	// the factor, so rate 0.8 offers 1.25× the nominal load and 2.0 offers
	// half of it.
	Replicas   []int
	Policies   []Policy
	Collectors []gc.Kind
	Rates      []float64
	Base       Config
}

// Cell is one grid point's outcome.
type Cell struct {
	Replicas  int     `json:"replicas"`
	Policy    Policy  `json:"policy"`
	Collector gc.Kind `json:"collector"`
	Rate      float64 `json:"rate"`
	OOM       bool    `json:"oom,omitempty"`
	Report    *Report `json:"report,omitempty"`
}

// CriticalRate is the SLO capacity of one (replicas, policy, collector)
// configuration: the highest offered arrival rate, across the sweep's rate
// ladder, whose fleet latency distribution met every SLA rung. Zero means no
// swept rate met the ladder.
type CriticalRate struct {
	Replicas  int     `json:"replicas"`
	Policy    Policy  `json:"policy"`
	Collector gc.Kind `json:"collector"`
	// RatePerSec is the winning offered rate in requests per second;
	// Headroom is the factor that achieved it.
	RatePerSec float64 `json:"rate_per_sec"`
	Headroom   float64 `json:"headroom"`
}

// Result is a completed sweep: every cell in grid order plus the derived
// critical rates.
type Result struct {
	Workload string         `json:"workload"`
	Cells    []Cell         `json:"cells"`
	Critical []CriticalRate `json:"critical"`
}

// cellEnvelope is the cached payload of one cell: either a report or the
// fact that a replica ran out of memory (a stable property of the cell, so
// it must be cacheable; transient errors are returned, not encoded).
type cellEnvelope struct {
	OOM    bool    `json:"oom,omitempty"`
	OOMErr string  `json:"oom_err,omitempty"`
	Report *Report `json:"report,omitempty"`
}

// RunSweep executes the grid on the engine and returns its result. The run
// is resumable: cells completed by an earlier, interrupted sweep are
// satisfied from the engine's cache.
func RunSweep(eng *exper.Engine, d *workload.Descriptor, sw Sweep) (*Result, error) {
	if err := sw.validate(); err != nil {
		return nil, err
	}
	reps := sw.Replicas
	if len(reps) == 0 {
		reps = []int{sw.Base.normalize(d).Replicas}
	}
	pols := sw.Policies
	if len(pols) == 0 {
		pols = []Policy{sw.Base.normalize(d).Policy}
	}
	cols := sw.Collectors
	if len(cols) == 0 {
		cols = []gc.Kind{sw.Base.Run.Collector}
	}
	rates := sw.Rates
	if len(rates) == 0 {
		rates = []float64{sw.Base.Run.OpenLoopHeadroom}
	}

	type submitted struct {
		cell   Cell
		ticket *exper.GenericTicket
	}
	var subs []submitted
	for _, n := range reps {
		for _, p := range pols {
			for _, c := range cols {
				for _, rate := range rates {
					cfg := sw.Base
					cfg.Replicas = n
					cfg.Policy = p
					cfg.Run.Collector = c
					cfg.Run.OpenLoopHeadroom = rate
					t, err := submitCell(eng, d, cfg)
					if err != nil {
						return nil, err
					}
					subs = append(subs, submitted{
						cell:   Cell{Replicas: n, Policy: p, Collector: c, Rate: rate},
						ticket: t,
					})
				}
			}
		}
	}

	res := &Result{Workload: d.Name}
	for _, s := range subs {
		data, err := s.ticket.Wait()
		if err != nil {
			return nil, fmt.Errorf("fleet: %s cell (n=%d %s %s rate=%v): %w",
				d.Name, s.cell.Replicas, s.cell.Policy, s.cell.Collector, s.cell.Rate, err)
		}
		var env cellEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("fleet: %s cell result: %w", d.Name, err)
		}
		s.cell.OOM = env.OOM
		s.cell.Report = env.Report
		res.Cells = append(res.Cells, s.cell)
	}
	res.Critical = criticalRates(res.Cells)
	return res, nil
}

// submitCell registers one cell as a generic engine job. The payload hash
// covers the descriptor's content and the complete fleet config, so a cell
// is cached for exactly the simulation that would reproduce it.
func submitCell(eng *exper.Engine, d *workload.Descriptor, cfg Config) (*exper.GenericTicket, error) {
	payload := struct {
		Descriptor *workload.Descriptor `json:"descriptor"`
		Config     Config               `json:"config"`
	}{d, cfg}
	return eng.SubmitGeneric(jobKind, payload, func(rec obs.Recorder) ([]byte, error) {
		rep, err := Run(d, cfg, rec)
		if err != nil {
			var oom *workload.ErrOutOfMemory
			if errors.As(err, &oom) {
				return json.Marshal(cellEnvelope{OOM: true, OOMErr: err.Error()})
			}
			return nil, err
		}
		return json.Marshal(cellEnvelope{Report: rep})
	})
}

// criticalRates derives each configuration's SLO capacity from its rate
// ladder. Cells arrive in grid order, so the grouped output is ordered too.
func criticalRates(cells []Cell) []CriticalRate {
	type groupKey struct {
		n int
		p Policy
		c gc.Kind
	}
	var order []groupKey
	best := map[groupKey]CriticalRate{}
	for _, cell := range cells {
		k := groupKey{cell.Replicas, cell.Policy, cell.Collector}
		cr, seen := best[k]
		if !seen {
			cr = CriticalRate{Replicas: k.n, Policy: k.p, Collector: k.c}
			order = append(order, k)
		}
		if !cell.OOM && cell.Report != nil && cell.Report.MeetsAll() &&
			cell.Report.OfferedRate > cr.RatePerSec {
			cr.RatePerSec = cell.Report.OfferedRate
			cr.Headroom = cell.Rate
		}
		best[k] = cr
	}
	out := make([]CriticalRate, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	return out
}
