package fleet

import (
	"chopin/internal/latency"
	"chopin/internal/obs"
	"chopin/internal/stats"
	"chopin/internal/workload"
)

// retryStormFrac is the retries/requests fraction above which a run is
// flagged as a retry storm.
const retryStormFrac = 0.1

// ReplicaStats summarizes one replica's serving record.
type ReplicaStats struct {
	Index  int   `json:"index"`
	Served int64 `json:"served"`
	// Latency quantiles over the replica's completions (arrival to
	// completion, virtual nanoseconds).
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	P999NS float64 `json:"p999_ns"`
	// Resource totals for the whole run.
	GCCPUNS     float64 `json:"gc_cpu_ns"`
	TaskClockNS float64 `json:"task_clock_ns"`
	HeapPeakMB  float64 `json:"heap_peak_mb"`
	WarmupIter  int     `json:"warmup_iter"`
}

// SLAResult grades the fleet distribution against one SLA rung.
type SLAResult struct {
	Percentile float64 `json:"percentile"`
	BoundNS    float64 `json:"bound_ns"`
	// LatencyNS is the fleet's achieved latency at the rung's percentile.
	LatencyNS float64 `json:"latency_ns"`
	Met       bool    `json:"met"`
}

// Report is the outcome of one fleet run: fleet-level SLO metrics, the
// anomaly signals (retry storm, host CPU pressure) and per-replica detail.
// It is a pure function of (descriptor, Config) and marshals
// deterministically, which the sweep cache and the determinism golden test
// both rely on.
type Report struct {
	Workload  string      `json:"workload"`
	Collector string      `json:"collector"`
	Policy    Policy      `json:"policy"`
	Arrival   ArrivalKind `json:"arrival"`
	Replicas  int         `json:"replicas"`

	// Requests is the offered arrival count; Completions additionally
	// counts retry attempts; Retries counts re-injections.
	Requests    int   `json:"requests"`
	Completions int64 `json:"completions"`
	Retries     int64 `json:"retries"`
	// RetryStorm flags Retries/Requests above retryStormFrac — the
	// positive-feedback regime where timeouts add load to an already
	// saturated fleet.
	RetryRate  float64 `json:"retry_rate"`
	RetryStorm bool    `json:"retry_storm"`

	// WallNS is the virtual time from first arrival to last completion;
	// OfferedRate the mean arrival rate in requests per second.
	WallNS      float64 `json:"wall_ns"`
	OfferedRate float64 `json:"offered_rate"`

	// Fleet-wide latency distribution, over every completion on every
	// replica (retry attempts included — each is a served request).
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	P999NS float64 `json:"p999_ns"`

	// Resource totals and the co-location pressure signal: HostCPU is
	// ΣTaskClock / (WallNS × HostCores), the fraction of the co-located
	// host's cycle budget the fleet consumed. Above 1.0 the placement is
	// infeasible — real replicas would slow each other — flagged as
	// HostSaturated rather than simulated, so the per-replica simulations
	// stay independent of placement.
	GCCPUNS       float64 `json:"gc_cpu_ns"`
	TaskClockNS   float64 `json:"task_clock_ns"`
	HostCores     int     `json:"host_cores"`
	HostCPU       float64 `json:"host_cpu"`
	HostSaturated bool    `json:"host_saturated"`

	SLAs       []SLAResult    `json:"slas"`
	PerReplica []ReplicaStats `json:"per_replica"`
}

// MeetsAll reports whether every SLA rung was met.
func (r *Report) MeetsAll() bool {
	for _, s := range r.SLAs {
		if !s.Met {
			return false
		}
	}
	return true
}

// buildReport computes the fleet report from the drained replicas.
func buildReport(d *workload.Descriptor, cfg Config, reps []*workload.Replica, retried int64) *Report {
	rep := &Report{
		Workload:  d.Name,
		Collector: cfg.Run.Collector.String(),
		Policy:    cfg.Policy,
		Arrival:   cfg.Arrival.Kind,
		Replicas:  cfg.Replicas,
		Requests:  cfg.Requests,
		Retries:   retried,
		HostCores: cfg.HostCores,
	}

	var (
		all      []float64
		firstArr = int64(-1)
		lastEnd  int64
	)
	for _, rp := range reps {
		evs := rp.Latencies()
		lats := make([]float64, len(evs))
		for i, ev := range evs {
			lats[i] = float64(ev.End - ev.Start)
			if firstArr < 0 || ev.Start < firstArr {
				firstArr = ev.Start
			}
			if ev.End > lastEnd {
				lastEnd = ev.End
			}
		}
		all = append(all, lats...)
		q := stats.Tail(lats, 50, 99, 99.9)
		rep.PerReplica = append(rep.PerReplica, ReplicaStats{
			Index:       rp.Index(),
			Served:      rp.Served(),
			MeanNS:      stats.Mean(lats),
			P50NS:       q[0],
			P99NS:       q[1],
			P999NS:      q[2],
			GCCPUNS:     rp.GCCPU(),
			TaskClockNS: rp.TaskClock(),
			HeapPeakMB:  rp.HeapPeak() / (1 << 20),
			WarmupIter:  rp.WarmupIter(),
		})
		rep.Completions += rp.Served()
		rep.GCCPUNS += rp.GCCPU()
		rep.TaskClockNS += rp.TaskClock()
	}

	// One sort serves the headline quantiles and every SLA percentile.
	rep.MeanNS = stats.Mean(all)
	ps := []float64{50, 99, 99.9}
	for _, sla := range latency.DefaultSLAs {
		ps = append(ps, sla.Percentile)
	}
	q := stats.Tail(all, ps...)
	rep.P50NS, rep.P99NS, rep.P999NS = q[0], q[1], q[2]

	if firstArr >= 0 && lastEnd > firstArr {
		rep.WallNS = float64(lastEnd - firstArr)
	}
	if rep.WallNS > 0 {
		rep.OfferedRate = float64(rep.Requests) / (rep.WallNS / 1e9)
		rep.HostCPU = rep.TaskClockNS / (rep.WallNS * float64(cfg.HostCores))
		rep.HostSaturated = rep.HostCPU > 1
	}
	if rep.Requests > 0 {
		rep.RetryRate = float64(rep.Retries) / float64(rep.Requests)
		rep.RetryStorm = rep.RetryRate > retryStormFrac
	}

	for i, sla := range latency.DefaultSLAs {
		got := q[3+i]
		rep.SLAs = append(rep.SLAs, SLAResult{
			Percentile: sla.Percentile,
			BoundNS:    sla.BoundNS,
			LatencyNS:  got,
			Met:        got <= sla.BoundNS,
		})
	}
	return rep
}

// recordReport emits the fleet's telemetry: one KindFleetReplica event per
// replica and one KindFleetReport for the fleet. Timestamps are virtual (the
// end of the run), so recorded telemetry is as deterministic as the report.
func recordReport(rec obs.Recorder, d *workload.Descriptor, cfg Config, reps []*workload.Replica, rep *Report) {
	if !rec.Enabled() {
		return
	}
	tns := int64(rep.WallNS)
	bench, col := obs.Intern(d.Name), obs.Intern(rep.Collector)
	for i, rs := range rep.PerReplica {
		rec.Record(obs.Event{
			Kind:      obs.KindFleetReplica,
			TNS:       tns,
			Benchmark: bench,
			Collector: col,
			Value:     float64(rs.Index),
			Aux:       float64(reps[i].Served()),
			DurNS:     rs.P99NS,
			CPUNS:     rs.TaskClockNS,
			HeapUsed:  rs.HeapPeakMB * (1 << 20),
			Replica:   int32(rs.Index) + 1,
		})
	}
	rec.Record(obs.Event{
		Kind:      obs.KindFleetReport,
		TNS:       tns,
		Benchmark: bench,
		Collector: col,
		Value:     float64(rep.Replicas),
		Aux:       float64(rep.Completions),
		DurNS:     rep.P99NS,
		CPUNS:     rep.TaskClockNS,
		StallFrac: rep.HostCPU,
	})
}
