package cpuarch

import (
	"math"
	"testing"
	"testing/quick"
)

// a mid-of-the-road profile for tests (roughly a lusearch-like workload).
func testProfile() Profile {
	return Profile{
		TargetIPC:          1.49,
		DCMissPerKI:        12,
		DTLBMissPerMI:      154,
		LLCMissPerMI:       2830,
		MispredictFrac1000: 40,
		RestartFrac1M:      596,
		BadSpecFrac1000:    41,
		FrontEndBound:      0.23,
		BackEndBound:       0.29,
		BackEndMemory:      0.20,
		SMTContention:      0.198,
		LLCSensitivity:     0.4,
		ARMAffinity:        0.87,
		IntelAffinity:      0.56,
	}
}

func TestCalibrationReproducesTargetIPC(t *testing.T) {
	p := testProfile()
	if got := p.IPC(Zen4); math.Abs(got-p.TargetIPC) > 1e-9 {
		t.Fatalf("IPC on reference machine = %v, want %v", got, p.TargetIPC)
	}
}

func TestIPCBoundedByIssueWidth(t *testing.T) {
	p := Profile{TargetIPC: 100}
	if got := p.IPC(Zen4); got > Zen4.IssueWidth+1e-9 {
		t.Fatalf("IPC = %v exceeds issue width %v", got, Zen4.IssueWidth)
	}
}

func TestSlowDRAMHurtsMemoryBoundMore(t *testing.T) {
	memBound := testProfile()
	memBound.LLCMissPerMI = 8506 // h2o-like
	memBound.BackEndMemory = 0.41
	cpuBound := testProfile()
	cpuBound.LLCMissPerMI = 335 // biojava-like
	cpuBound.BackEndMemory = 0.15

	slowMem := memBound.TimeFactor(Zen4.WithSlowDRAM())
	slowCPU := cpuBound.TimeFactor(Zen4.WithSlowDRAM())
	if slowMem <= slowCPU {
		t.Fatalf("memory-bound slowdown %v should exceed cpu-bound %v", slowMem, slowCPU)
	}
	if slowMem <= 1 {
		t.Fatalf("slow DRAM should slow the workload, factor = %v", slowMem)
	}
}

func TestLLCShrinkHurtsSensitiveWorkloads(t *testing.T) {
	sensitive := testProfile()
	sensitive.LLCSensitivity = 0.8
	insensitive := testProfile()
	insensitive.LLCSensitivity = 0.0

	small := Zen4.WithLLCScale(1.0 / 16)
	fs := sensitive.TimeFactor(small)
	fi := insensitive.TimeFactor(small)
	if fs <= fi {
		t.Fatalf("LLC-sensitive slowdown %v should exceed insensitive %v", fs, fi)
	}
	if math.Abs(fi-1) > 1e-9 {
		t.Fatalf("zero-sensitivity workload should be unaffected, factor = %v", fi)
	}
}

func TestFrequencyBoostHelpsComputeBoundMore(t *testing.T) {
	compute := testProfile()
	compute.LLCMissPerMI = 100
	compute.BackEndMemory = 0.05
	mem := testProfile()
	mem.LLCMissPerMI = 8000
	mem.BackEndMemory = 0.45

	boost := Zen4.WithBoost(ZenBoostGHz)
	sc := compute.TimeFactor(boost) // < 1 is a speedup
	sm := mem.TimeFactor(boost)
	if sc >= 1 || sm >= 1 {
		t.Fatalf("boost should speed both up: compute %v, mem %v", sc, sm)
	}
	if sc >= sm {
		t.Fatalf("compute-bound should benefit more: compute %v vs mem %v", sc, sm)
	}
}

func TestCrossArchitectureAffinity(t *testing.T) {
	p := testProfile()
	if got := p.TimeFactor(NeoverseN1); math.Abs(got-1.87) > 1e-9 {
		t.Fatalf("ARM factor = %v, want 1.87", got)
	}
	if got := p.TimeFactor(GoldenCove); math.Abs(got-1.56) > 1e-9 {
		t.Fatalf("Intel factor = %v, want 1.56", got)
	}
}

func TestReferenceMachineFactorIsOne(t *testing.T) {
	p := testProfile()
	if got := p.TimeFactor(Zen4); math.Abs(got-1) > 1e-12 {
		t.Fatalf("reference factor = %v, want 1", got)
	}
}

func TestCapacityPerfectUpToCores(t *testing.T) {
	c := Zen4.Capacity(0)
	for n := 1; n <= Zen4.Cores; n++ {
		if got := c(n); got != float64(n) {
			t.Fatalf("capacity(%d) = %v, want %d", n, got, n)
		}
	}
}

func TestCapacitySMTRegion(t *testing.T) {
	c := Zen4.Capacity(0)
	// 32 threads on 16 cores with 0.30 yield: 16 + 0.30*16 = 20.8.
	if got := c(32); math.Abs(got-20.8) > 1e-9 {
		t.Fatalf("capacity(32) = %v, want 20.8", got)
	}
	// Saturates past HWThreads.
	if got := c(64); math.Abs(got-20.8) > 1e-9 {
		t.Fatalf("capacity(64) = %v, want 20.8", got)
	}
}

func TestCapacitySMTContentionErodesYield(t *testing.T) {
	free := Zen4.Capacity(0)(32)
	contended := Zen4.Capacity(0.5)(32)
	fullyContended := Zen4.Capacity(1)(32)
	if !(fullyContended < contended && contended < free) {
		t.Fatalf("capacity should fall with contention: %v, %v, %v",
			free, contended, fullyContended)
	}
	if fullyContended != float64(Zen4.Cores) {
		t.Fatalf("full contention should collapse to core count, got %v", fullyContended)
	}
}

func TestTopDownReproducesDeclaredFractions(t *testing.T) {
	p := testProfile()
	td := p.Analyze(Zen4)
	if math.Abs(td.FrontEnd-0.23) > 1e-9 || math.Abs(td.BackEnd-0.29) > 1e-9 ||
		math.Abs(td.BadSpec-0.041) > 1e-9 || math.Abs(td.BackEndMemory-0.20) > 1e-9 {
		t.Fatalf("declared fractions not reproduced: %+v", td)
	}
	sum := td.Retiring + td.FrontEnd + td.BadSpec + td.BackEnd
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("top-down fractions sum to %v, want 1", sum)
	}
}

func TestTopDownMemoryGrowsUnderSlowDRAM(t *testing.T) {
	p := testProfile()
	ref := p.Analyze(Zen4)
	slow := p.Analyze(Zen4.WithSlowDRAM())
	if slow.BackEndMemory <= ref.BackEndMemory {
		t.Fatalf("memory-bound share should grow under slow DRAM: %v -> %v",
			ref.BackEndMemory, slow.BackEndMemory)
	}
	if slow.IPC >= ref.IPC {
		t.Fatalf("IPC should fall under slow DRAM: %v -> %v", ref.IPC, slow.IPC)
	}
}

func TestQuickTimeFactorPositiveFinite(t *testing.T) {
	f := func(ipcRaw, memRaw, llcRaw uint16) bool {
		p := Profile{
			TargetIPC:      0.5 + float64(ipcRaw%500)/100,
			BackEndMemory:  float64(memRaw%100) / 100,
			LLCMissPerMI:   float64(llcRaw % 9000),
			DCMissPerKI:    5,
			LLCSensitivity: 0.3,
		}
		for _, m := range []Machine{Zen4, Zen4.WithSlowDRAM(), Zen4.WithLLCScale(1.0 / 16),
			Zen4.WithBoost(ZenBoostGHz), GoldenCove, NeoverseN1} {
			tf := p.TimeFactor(m)
			if !(tf > 0) || math.IsInf(tf, 0) || math.IsNaN(tf) {
				return false
			}
			if p.IPC(m) > m.IssueWidth+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSlowDRAMNeverSpeedsUp(t *testing.T) {
	f := func(llcRaw, memRaw uint16) bool {
		p := testProfile()
		p.LLCMissPerMI = float64(llcRaw % 9000)
		p.BackEndMemory = float64(memRaw%95) / 100
		return p.TimeFactor(Zen4.WithSlowDRAM()) >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWithLLCScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zen4.WithLLCScale(0)
}
