package jit

import (
	"math"
	"testing"
	"testing/quick"
)

func testModel() Model {
	// jython-like: slow to warm up, very compiler-sensitive.
	return Model{WarmupIters: 9, InterpFactor: 2.77, C2Cost: 2.11, WorstFactor: 2.77}
}

func TestTieredConvergesToOne(t *testing.T) {
	m := testModel()
	if got := m.Factor(Tiered, 500); math.Abs(got-1) > 0.001 {
		t.Fatalf("steady-state tiered factor = %v, want ~1", got)
	}
}

func TestTieredWarmupMonotoneDecreasing(t *testing.T) {
	m := testModel()
	prev := math.Inf(1)
	for i := 0; i < 30; i++ {
		f := m.Factor(Tiered, i)
		if f > prev+1e-12 {
			t.Fatalf("warmup factor increased at iter %d: %v -> %v", i, prev, f)
		}
		if f < 1 {
			t.Fatalf("factor below 1 at iter %d: %v", i, f)
		}
		prev = f
	}
}

// warmedUpBy is the first iteration whose tiered factor is within the
// warmup criterion of steady state: the PWU the model should reproduce.
func warmedUpBy(m Model) int {
	for i := 0; i < 1000; i++ {
		if m.Factor(Tiered, i) <= 1+warmupTarget+1e-12 {
			return i
		}
	}
	return 1000
}

func TestWarmedUpByMatchesDeclaredPWU(t *testing.T) {
	for _, w := range []int{1, 2, 5, 9} {
		m := Model{WarmupIters: w, InterpFactor: 1.5}
		if got := warmedUpBy(m); got != w {
			t.Errorf("WarmupIters=%d: tiered factor warms up by iteration %d", w, got)
		}
	}
}

func TestInterpreterUniformlySlow(t *testing.T) {
	m := testModel()
	f0 := m.Factor(InterpreterOnly, 0)
	f9 := m.Factor(InterpreterOnly, 9)
	if f0 != f9 {
		t.Fatalf("interpreter factor should not warm up: %v vs %v", f0, f9)
	}
	if math.Abs(f0-3.77) > 1e-9 {
		t.Fatalf("interpreter factor = %v, want 3.77", f0)
	}
}

func TestForcedC2FrontLoadsCost(t *testing.T) {
	m := testModel()
	first := m.Factor(ForcedC2, 0)
	later := m.Factor(ForcedC2, 1)
	if math.Abs(first-3.11) > 1e-9 {
		t.Fatalf("forced-C2 first iteration = %v, want 3.11", first)
	}
	if later >= first {
		t.Fatalf("forced-C2 should be cheap after compiling: %v -> %v", first, later)
	}
	if later < 1 {
		t.Fatalf("forced-C2 steady factor below 1: %v", later)
	}
}

func TestWorstTierSteady(t *testing.T) {
	m := testModel()
	if got := m.Factor(WorstTier, 100); math.Abs(got-3.77) > 1e-9 {
		t.Fatalf("worst-tier factor = %v, want 3.77", got)
	}
}

func TestInsensitiveWorkloadBarelyWarms(t *testing.T) {
	// jme-like: PIN 1%, PWU 1.
	m := Model{WarmupIters: 1, InterpFactor: 0.01, C2Cost: 0.72, WorstFactor: 0.01}
	if got := m.Factor(Tiered, 0); got > 1.2 {
		t.Fatalf("insensitive workload iteration-0 factor too high: %v", got)
	}
	if got := warmedUpBy(m); got > 2 {
		t.Fatalf("insensitive workload should warm immediately, got %d", got)
	}
}

func TestNegativeIterationClamped(t *testing.T) {
	m := testModel()
	if m.Factor(Tiered, -5) != m.Factor(Tiered, 0) {
		t.Fatal("negative iteration should clamp to zero")
	}
}

func TestConfigString(t *testing.T) {
	want := map[Config]string{
		Tiered: "tiered", InterpreterOnly: "interpreter",
		ForcedC2: "forced-c2", WorstTier: "worst-tier", Config(42): "unknown",
	}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", c, got, s)
		}
	}
}

func TestQuickFactorsAlwaysAtLeastOneish(t *testing.T) {
	f := func(wRaw, pinRaw, pccRaw uint16, iterRaw uint8) bool {
		m := Model{
			WarmupIters:  int(wRaw%12) + 1,
			InterpFactor: float64(pinRaw%330) / 100,
			C2Cost:       float64(pccRaw%1100) / 100,
			WorstFactor:  float64(pinRaw%330) / 100,
		}
		iter := int(iterRaw % 40)
		for _, cfg := range []Config{Tiered, InterpreterOnly, ForcedC2, WorstTier} {
			v := m.Factor(cfg, iter)
			if !(v >= 1-1e-9) || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTieredNeverBelowSteadyState(t *testing.T) {
	f := func(wRaw uint8, pinRaw uint16, a, b uint8) bool {
		m := Model{WarmupIters: int(wRaw%10) + 1, InterpFactor: float64(pinRaw%300) / 100}
		i, j := int(a%50), int(b%50)
		if i > j {
			i, j = j, i
		}
		return m.Factor(Tiered, i) >= m.Factor(Tiered, j)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
