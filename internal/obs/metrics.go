package obs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: bucket i counts observations
// v <= bounds[i], with one overflow bucket above the last bound. The bounds
// are fixed at construction, so Observe is a binary search plus one atomic add —
// no allocation, safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Uint64  // math.Float64bits-encoded total, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// StallBoundsNS is the standard bucket ladder for pause/stall durations,
// log-spaced from 10µs to 100ms.
var StallBoundsNS = []float64{
	1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8,
}

// Observe records one sample. NaN samples are dropped: a NaN duration is a
// producer bug, and poisoning the sum would hide every later sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counts returns a snapshot of the per-bucket counts; the last entry is the
// overflow bucket.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Total returns the number of observed samples.
func (h *Histogram) Total() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// String renders the histogram as an ASCII table with one row per occupied
// bucket, for human consumption in obsreport.
func (h *Histogram) String() string {
	counts := h.Counts()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	for i, c := range counts {
		if c == 0 {
			continue
		}
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("<= %s", fmtNS(h.bounds[0]))
		case i == len(h.bounds):
			label = fmt.Sprintf(" > %s", fmtNS(h.bounds[len(h.bounds)-1]))
		default:
			label = fmt.Sprintf("%s..%s", fmtNS(h.bounds[i-1]), fmtNS(h.bounds[i]))
		}
		bar := strings.Repeat("#", int(math.Ceil(40*float64(c)/float64(total))))
		fmt.Fprintf(&b, "%16s %8d %s\n", label, c, bar)
	}
	return b.String()
}

// fmtNS renders a nanosecond duration with a human unit.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.4gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gus", ns/1e3)
	}
	return fmt.Sprintf("%.4gns", ns)
}
