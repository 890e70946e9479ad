package heap

import (
	"fmt"
	"math"
	"sort"
)

// SizeDistribution models a workload's object-size population. The real
// suite derives the AOA/AOL/AOM/AOS nominal statistics from bytecode-
// instrumented executions; our analogue is a parametric model fitted to the
// same quantiles, from which characterization runs *measure* the statistics
// by sampling — keeping the measurement pipeline honest instead of echoing
// configuration.
//
// Java object sizes are a heavily right-skewed mixture: a spike of small
// headers-plus-a-field objects and a long tail of arrays. We model that as a
// two-component mixture of a point mass at the median (the dominant small
// class) and a log-normal tail, with the mixture weight and tail shape
// fitted so that the P10/median/P90 quantiles and the mean land on the
// calibrated values.
type SizeDistribution struct {
	demo Demographics
	// tail parameters, fitted at construction
	tailMedian float64
	tailSigma  float64
	tailWeight float64
}

// sampler abstracts the RNG so heap does not import sim.
type sampler interface {
	Float64() float64
	NormFloat64() float64
}

// NewSizeDistribution fits the mixture to the demographics' quantiles.
func NewSizeDistribution(d Demographics) (*SizeDistribution, error) {
	if d.ObjectBytesMedian <= 0 || d.ObjectBytesP90 <= 0 || d.ObjectBytesP10 <= 0 {
		return nil, fmt.Errorf("heap: size distribution needs positive quantiles, got %+v", d)
	}
	if d.AvgObjectBytes < d.ObjectBytesP10 {
		return nil, fmt.Errorf("heap: average %v below P10 %v", d.AvgObjectBytes, d.ObjectBytesP10)
	}
	s := &SizeDistribution{demo: d}
	// The tail starts at the P90 scale; its weight is what the mean needs
	// beyond the bulk. Mean = (1-w)*median + w*tailMean.
	s.tailMedian = math.Max(d.ObjectBytesP90, d.ObjectBytesMedian*1.5)
	s.tailSigma = 0.8
	tailMean := s.tailMedian * math.Exp(s.tailSigma*s.tailSigma/2)
	if tailMean <= d.ObjectBytesMedian {
		s.tailWeight = 0.1
	} else {
		w := (d.AvgObjectBytes - d.ObjectBytesMedian) / (tailMean - d.ObjectBytesMedian)
		s.tailWeight = math.Min(0.45, math.Max(0.02, w))
	}
	return s, nil
}

// Sample draws one object size in bytes (always >= 16, a Java object
// header).
func (s *SizeDistribution) Sample(rng sampler) float64 {
	var v float64
	if rng.Float64() < s.tailWeight {
		v = s.tailMedian * math.Exp(s.tailSigma*rng.NormFloat64())
	} else {
		// The bulk component: the small-object spike spread between P10 and
		// median (objects come in a few discrete size classes).
		if rng.Float64() < 0.25 {
			v = s.demo.ObjectBytesP10
		} else {
			v = s.demo.ObjectBytesMedian
		}
	}
	if v < 16 {
		v = 16
	}
	return math.Round(v/8) * 8 // object sizes are 8-byte aligned
}

// MeasuredStats samples n objects and returns the measured mean, P10,
// median and P90 — the AOA/AOS/AOM/AOL statistics as a characterization run
// observes them.
func (s *SizeDistribution) MeasuredStats(rng sampler, n int) (avg, p10, median, p90 float64) {
	if n < 1 {
		n = 1
	}
	sizes := make([]float64, n)
	var sum float64
	for i := range sizes {
		sizes[i] = s.Sample(rng)
		sum += sizes[i]
	}
	sort.Float64s(sizes)
	quantile := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return sizes[idx]
	}
	return sum / float64(n), quantile(0.10), quantile(0.50), quantile(0.90)
}
