package heap

import (
	"math"
	"testing"
	"testing/quick"

	"chopin/internal/sim"
)

func TestSizeDistributionFitsQuantiles(t *testing.T) {
	// lusearch-like: avg 75, P10 24, median 24, P90 88.
	d := Demographics{AvgObjectBytes: 75, ObjectBytesP10: 24, ObjectBytesMedian: 24, ObjectBytesP90: 88}
	s, err := NewSizeDistribution(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	avg, p10, median, _ := s.MeasuredStats(rng, 200000)
	if math.Abs(avg-75)/75 > 0.35 {
		t.Errorf("measured avg %v, want ~75", avg)
	}
	if p10 != 24 {
		t.Errorf("measured P10 %v, want 24", p10)
	}
	if median != 24 {
		t.Errorf("measured median %v, want 24", median)
	}
}

func TestSizeDistributionLuindexLargeObjects(t *testing.T) {
	// luindex has the suite's largest average (211B) with median 32: an
	// extreme tail. The fit must still put the bulk at the median and the
	// mean in the right decade.
	d := Demographics{AvgObjectBytes: 211, ObjectBytesP10: 24, ObjectBytesMedian: 32, ObjectBytesP90: 88}
	s, err := NewSizeDistribution(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	avg, _, median, p90 := s.MeasuredStats(rng, 200000)
	if median != 32 {
		t.Errorf("median %v, want 32", median)
	}
	if avg < 60 || avg > 400 {
		t.Errorf("avg %v, want same decade as 211", avg)
	}
	if p90 < median {
		t.Errorf("p90 %v below median %v", p90, median)
	}
}

func TestSizeDistributionAlignment(t *testing.T) {
	d := Demographics{AvgObjectBytes: 64, ObjectBytesP10: 24, ObjectBytesMedian: 32, ObjectBytesP90: 88}
	s, err := NewSizeDistribution(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := s.Sample(rng)
		if v < 16 {
			t.Fatalf("object below header size: %v", v)
		}
		if math.Mod(v, 8) != 0 {
			t.Fatalf("object not 8-byte aligned: %v", v)
		}
	}
}

func TestSizeDistributionErrors(t *testing.T) {
	if _, err := NewSizeDistribution(Demographics{}); err == nil {
		t.Fatal("zero quantiles should error")
	}
	if _, err := NewSizeDistribution(Demographics{
		AvgObjectBytes: 10, ObjectBytesP10: 24, ObjectBytesMedian: 32, ObjectBytesP90: 88,
	}); err == nil {
		t.Fatal("average below P10 should error")
	}
}

func TestQuickSizeDistributionSane(t *testing.T) {
	f := func(medRaw, p90Raw, avgRaw uint16, seed uint32) bool {
		median := float64(medRaw%100) + 16
		p90 := median + float64(p90Raw%200)
		avg := median + float64(avgRaw%150)
		d := Demographics{
			AvgObjectBytes: avg, ObjectBytesP10: 16,
			ObjectBytesMedian: median, ObjectBytesP90: p90,
		}
		s, err := NewSizeDistribution(d)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(uint64(seed))
		for i := 0; i < 200; i++ {
			v := s.Sample(rng)
			if v < 16 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
