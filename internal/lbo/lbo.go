// Package lbo implements the lower-bound overhead methodology of Cai et al.
// (ISPASS 2022) as used throughout the paper (Sections 2, 4.5 and 6.2).
//
// The idea: a perfect zero-cost GC would be the right baseline for measuring
// collector overhead, and although it cannot exist it can be approximated by
// taking real measurements and subtracting the costs that are easily
// attributable to collection — stop-the-world time from the wall clock, GC
// thread CPU from the task clock. The lowest such "distilled" cost across
// every collector and heap size is the baseline; each configuration's
// overhead is its total cost over that baseline. Because the baseline still
// contains unattributable GC costs (barriers, allocator work, locality
// damage), the resulting overhead is systematically an underestimate: a
// lower bound.
package lbo

import (
	"fmt"
	"math"

	"chopin/internal/stats"
)

// Measurement is one (collector, heap size) cell of a benchmark's grid.
type Measurement struct {
	Collector  string
	HeapFactor float64 // multiple of the benchmark's minimum heap
	HeapMB     float64
	// Completed is false when the collector could not run the benchmark at
	// this heap size (OOM); such cells carry no data and are excluded, as
	// the paper excludes them from its plots.
	Completed bool
	// WallNS and CPUNS are mean total costs across invocations.
	WallNS float64
	CPUNS  float64
	// STWWallNS is the wall time spent in stop-the-world pauses; GCCPUNS is
	// the CPU consumed by GC threads. These are the "easily attributable"
	// costs the distillation subtracts.
	STWWallNS float64
	GCCPUNS   float64
	// WallSamples and CPUSamples are per-invocation totals for confidence
	// intervals.
	WallSamples []float64
	CPUSamples  []float64
}

// DistilledWall returns the cell's approximation to GC-free wall time.
func (m Measurement) DistilledWall() float64 { return m.WallNS - m.STWWallNS }

// DistilledCPU returns the cell's approximation to GC-free CPU time.
func (m Measurement) DistilledCPU() float64 { return m.CPUNS - m.GCCPUNS }

// Grid is one benchmark's measurements over the (collector, heap) plane.
type Grid struct {
	Benchmark string
	Cells     []Measurement
}

// Add appends a measurement.
func (g *Grid) Add(m Measurement) { g.Cells = append(g.Cells, m) }

// BaselineWall returns the distilled wall-clock baseline: the minimum
// distilled wall time over all completed cells.
func (g *Grid) BaselineWall() (float64, error) {
	return g.baseline(Measurement.DistilledWall)
}

// BaselineCPU returns the distilled task-clock baseline.
func (g *Grid) BaselineCPU() (float64, error) {
	return g.baseline(Measurement.DistilledCPU)
}

func (g *Grid) baseline(distill func(Measurement) float64) (float64, error) {
	best := math.Inf(1)
	for _, m := range g.Cells {
		if !m.Completed {
			continue
		}
		if d := distill(m); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("lbo: %s has no completed cells", g.Benchmark)
	}
	if best <= 0 {
		return 0, fmt.Errorf("lbo: %s distilled baseline %v is non-positive", g.Benchmark, best)
	}
	return best, nil
}

// Overhead is the lower-bound overhead of one cell: total cost normalized to
// the benchmark's distilled baseline (>= the baseline cell's own ratio, and
// >= 1 at the baseline point by construction).
type Overhead struct {
	Collector  string
	HeapFactor float64
	HeapMB     float64
	Completed  bool
	Wall       float64 // normalized wall-clock overhead
	CPU        float64 // normalized task-clock overhead
}

// Overheads normalizes every cell against the grid's distilled baselines.
func (g *Grid) Overheads() ([]Overhead, error) {
	bw, err := g.BaselineWall()
	if err != nil {
		return nil, err
	}
	bc, err := g.BaselineCPU()
	if err != nil {
		return nil, err
	}
	out := make([]Overhead, 0, len(g.Cells))
	for _, m := range g.Cells {
		o := Overhead{
			Collector:  m.Collector,
			HeapFactor: m.HeapFactor,
			HeapMB:     m.HeapMB,
			Completed:  m.Completed,
		}
		if m.Completed {
			o.Wall = m.WallNS / bw
			o.CPU = m.CPUNS / bc
		}
		out = append(out, o)
	}
	return out, nil
}

// GeomeanPoint is one point of a cross-benchmark LBO curve (Figure 1).
type GeomeanPoint struct {
	Collector  string
	HeapFactor float64
	Wall       float64
	CPU        float64
	// Benchmarks is how many benchmarks contributed; Complete reports
	// whether the collector completed every benchmark at this heap factor —
	// the paper only plots complete points.
	Benchmarks int
	Complete   bool
}

// Geomean aggregates per-benchmark overhead grids into the cross-suite
// geometric-mean curves of Figure 1. Points where a collector did not
// complete every benchmark are returned with Complete=false so callers can
// omit them exactly as the paper does.
func Geomean(grids []*Grid, collectors []string, factors []float64) ([]GeomeanPoint, error) {
	type key struct {
		collector string
		factor    float64
	}
	overheadsByBench := make([]map[key]Overhead, len(grids))
	for i, g := range grids {
		ovs, err := g.Overheads()
		if err != nil {
			return nil, err
		}
		m := make(map[key]Overhead, len(ovs))
		for _, o := range ovs {
			m[key{o.Collector, o.HeapFactor}] = o
		}
		overheadsByBench[i] = m
	}

	var out []GeomeanPoint
	for _, c := range collectors {
		for _, f := range factors {
			pt := GeomeanPoint{Collector: c, HeapFactor: f, Complete: true}
			var walls, cpus []float64
			for _, m := range overheadsByBench {
				o, ok := m[key{c, f}]
				if !ok || !o.Completed {
					pt.Complete = false
					continue
				}
				walls = append(walls, o.Wall)
				cpus = append(cpus, o.CPU)
			}
			pt.Benchmarks = len(walls)
			pt.Wall, pt.CPU = stats.GeoMean(walls), stats.GeoMean(cpus)
			out = append(out, pt)
		}
	}
	return out, nil
}
