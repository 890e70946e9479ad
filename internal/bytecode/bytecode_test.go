package bytecode

import (
	"math"
	"testing"
	"testing/quick"
)

// lusearch-like targets.
func testTargets() Targets {
	return Targets{
		AALoadPerUS: 252, AAStorePerUS: 126, GetFieldPerUS: 12289, PutFieldPerUS: 3863,
		UniqueBytecodesK: 26, UniqueFunctionsK: 3, Focus: 5,
		ExecTimeUS: 2e6,
	}
}

func TestSynthesizeShape(t *testing.T) {
	p, err := Synthesize(testTargets(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Methods) != 3000 {
		t.Fatalf("methods = %d, want 3000 (BUF 3k)", len(p.Methods))
	}
	sites := 0
	for _, m := range p.Methods {
		sites += len(m.Body)
	}
	if sites < 20000 || sites > 32000 {
		t.Fatalf("sites = %d, want ~26000 (BUB 26k)", sites)
	}
}

func TestMeasuredRatesMatchTargets(t *testing.T) {
	tg := testTargets()
	r, err := Measure(tg, 7)
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want, tol float64) {
		if want == 0 {
			return
		}
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %v, want ~%v", name, got, want)
		}
	}
	// The low-rate opcodes occupy few sites, so hot-set composition adds
	// sampling variance; allow a wider band for them.
	within("BAL", r.BAL, tg.AALoadPerUS, 0.30)
	within("BAS", r.BAS, tg.AAStorePerUS, 0.30)
	within("BGF", r.BGF, tg.GetFieldPerUS, 0.05)
	within("BPF", r.BPF, tg.PutFieldPerUS, 0.05)
	within("BUB", r.BUB, tg.UniqueBytecodesK, 0.25)
	within("BUF", r.BUF, tg.UniqueFunctionsK, 0.25)
	within("BEF", r.BEF, tg.Focus, 0.25)
}

func TestEclipseLikeExtremeFocus(t *testing.T) {
	// eclipse: BEF 29 (almost everything in hot code), BUB 1k, BUF ~0.
	tg := Targets{Focus: 29, UniqueBytecodesK: 1, UniqueFunctionsK: 0, ExecTimeUS: 8e6}
	r, err := Measure(tg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.BEF < 24 || r.BEF > 30 {
		t.Fatalf("BEF = %v, want ~29 (clamped at 29.1)", r.BEF)
	}
	if r.BUF > 0.01 {
		t.Fatalf("BUF = %v, want ~0 (single method)", r.BUF)
	}
}

func TestZeroTrackedRates(t *testing.T) {
	// eclipse also has BAL=BAS=BGF=BPF=0: the mix degenerates to filler.
	tg := Targets{UniqueBytecodesK: 1, UniqueFunctionsK: 0.1, Focus: 29, ExecTimeUS: 1e6}
	r, err := Measure(tg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r.BAL != 0 || r.BGF != 0 {
		t.Fatalf("tracked rates should be ~0: %+v", r)
	}
	if r.BUB <= 0 {
		t.Fatal("no sites executed")
	}
}

func TestExecutionDeterministic(t *testing.T) {
	a, _ := Measure(testTargets(), 42)
	b, _ := Measure(testTargets(), 42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestInvalidTargets(t *testing.T) {
	if _, err := Measure(Targets{}, 1); err == nil {
		t.Fatal("zero execution time should error")
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpAALoad.String() != "aaload" || OpGetField.String() != "getfield" {
		t.Fatal("opcode names wrong")
	}
	if Opcode(200).String() == "" {
		t.Fatal("unknown opcode should still render")
	}
}

func TestHotSetDominatesExecution(t *testing.T) {
	p, err := Synthesize(testTargets(), 5)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Execute(200000, 5)
	gotShare := float64(c.HotExecuted) / float64(c.Executed)
	if math.Abs(gotShare-p.hotShare) > 0.02 {
		t.Fatalf("hot share = %v, configured %v", gotShare, p.hotShare)
	}
	if got := p.expectedBEF(); math.Abs(got-30*p.hotShare) > 1e-9 {
		t.Fatalf("expectedBEF inconsistent: %v", got)
	}
}

func TestQuickMeasureSane(t *testing.T) {
	f := func(balRaw, bubRaw, bufRaw, focusRaw uint16) bool {
		tg := Targets{
			AALoadPerUS:      float64(balRaw % 2300),
			GetFieldPerUS:    float64(balRaw%900) * 3,
			UniqueBytecodesK: float64(bubRaw%180) + 1,
			UniqueFunctionsK: float64(bufRaw % 30),
			Focus:            float64(focusRaw%29) + 1,
			ExecTimeUS:       1e6,
		}
		r, err := Measure(tg, uint64(balRaw)<<16|uint64(bubRaw))
		if err != nil {
			return false
		}
		for _, v := range []float64{r.BAL, r.BAS, r.BGF, r.BPF, r.BUB, r.BUF, r.BEF} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return r.BEF <= 30.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
