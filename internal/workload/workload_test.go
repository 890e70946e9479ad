package workload

import (
	"errors"
	"math"
	"strings"
	"testing"

	"chopin/internal/cpuarch"
	"chopin/internal/gc"
	"chopin/internal/trace"
)

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("suite has %d workloads, want 22", len(all))
	}
	lat := LatencySensitive()
	if len(lat) != 9 {
		t.Fatalf("latency-sensitive subset has %d workloads, want 9", len(lat))
	}
	newCount := 0
	for _, d := range all {
		if d.NewInChopin {
			newCount++
		}
	}
	if newCount != 8 {
		t.Fatalf("suite has %d new workloads, want 8", newCount)
	}
}

func TestAllDescriptorsValid(t *testing.T) {
	for _, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if d.Arch.TargetIPC <= 0 {
			t.Errorf("%s: missing IPC", d.Name)
		}
		if d.Demo.AvgObjectBytes <= 0 {
			t.Errorf("%s: missing object demographics", d.Name)
		}
		if d.MinHeapMB <= 0 {
			t.Errorf("%s: missing published min heap", d.Name)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("lusearch")
	if err != nil || d.Name != "lusearch" {
		t.Fatalf("ByName(lusearch) = %v, %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestMinHeapRangeMatchesPaper(t *testing.T) {
	// Paper: default-size minimum heaps range from 5MB (avrora) to 681MB (h2).
	var minName, maxName string
	min, max := math.Inf(1), 0.0
	for _, d := range All() {
		if d.MinHeapMB < min {
			min, minName = d.MinHeapMB, d.Name
		}
		if d.MinHeapMB > max {
			max, maxName = d.MinHeapMB, d.Name
		}
	}
	if minName != "avrora" || min != 5 {
		t.Fatalf("smallest heap = %s (%vMB), want avrora (5MB)", minName, min)
	}
	if maxName != "h2" || max != 681 {
		t.Fatalf("largest heap = %s (%vMB), want h2 (681MB)", maxName, max)
	}
}

func TestHighestAllocationRateIsLusearch(t *testing.T) {
	for _, d := range All() {
		if d.Name != "lusearch" && d.ARA >= Lusearch.ARA {
			t.Fatalf("%s ARA %v >= lusearch %v", d.Name, d.ARA, Lusearch.ARA)
		}
	}
}

func smallRun(t *testing.T, d *Descriptor, cfg RunConfig) *Result {
	t.Helper()
	if cfg.Events == 0 {
		cfg.Events = 300
	}
	if cfg.HeapMB == 0 {
		cfg.HeapMB = 2 * d.MinHeapMB
	}
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	return res
}

func TestRunProducesMeasurements(t *testing.T) {
	res := smallRun(t, Lusearch, RunConfig{Collector: gc.G1, Iterations: 2, Seed: 1})
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		if it.WallNS <= 0 || it.CPUNS <= 0 || it.Allocated <= 0 {
			t.Fatalf("iteration %d has empty measurements: %+v", i, it)
		}
		if it.CPUNS < it.WallNS*0.5 {
			t.Fatalf("iteration %d: task clock %v implausibly below wall %v with 11 workers",
				i, it.CPUNS, it.WallNS)
		}
	}
	if res.GCCPUNS <= 0 {
		t.Fatal("no GC CPU with a 2x heap and the suite's highest allocation rate")
	}
	if len(res.Events) == 0 {
		t.Fatal("latency-sensitive workload recorded no events")
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	a := smallRun(t, Cassandra, RunConfig{Collector: gc.G1, Iterations: 1, Seed: 7})
	b := smallRun(t, Cassandra, RunConfig{Collector: gc.G1, Iterations: 1, Seed: 7})
	if a.Last().WallNS != b.Last().WallNS || a.Last().CPUNS != b.Last().CPUNS {
		t.Fatalf("same seed diverged: %v vs %v", a.Last(), b.Last())
	}
	c := smallRun(t, Cassandra, RunConfig{Collector: gc.G1, Iterations: 1, Seed: 8})
	if a.Last().WallNS == c.Last().WallNS {
		t.Fatal("different seeds produced identical wall time")
	}
}

func TestOOMBelowMinimumHeap(t *testing.T) {
	_, err := Run(Lusearch, RunConfig{
		HeapMB: 2, Collector: gc.Serial, Iterations: 1, Events: 300, Seed: 1,
	})
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestZGCNeedsMoreHeapThanSerial(t *testing.T) {
	// At exactly the compressed-oops minimum heap, Serial completes but
	// ZGC's uncompressed footprint cannot (paper: ZGC is absent from 1x
	// points in every LBO figure).
	heapMB := Cassandra.MinHeapMB
	if _, err := Run(Cassandra, RunConfig{
		HeapMB: heapMB, Collector: gc.Serial, Iterations: 1, Events: 400, Seed: 1,
	}); err != nil {
		t.Fatalf("Serial at 1x: %v", err)
	}
	_, err := Run(Cassandra, RunConfig{
		HeapMB: heapMB, Collector: gc.ZGC, Iterations: 1, Events: 400, Seed: 1,
	})
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("ZGC at 1x should OOM, got %v", err)
	}
}

func TestDisableCompressedOopsRaisesFootprint(t *testing.T) {
	// A heap just above minimum works compressed but not uncompressed.
	heapMB := Fop.MinHeapMB * 1.10
	if _, err := Run(Fop, RunConfig{
		HeapMB: heapMB, Collector: gc.G1, Iterations: 1, Events: 300, Seed: 1,
	}); err != nil {
		t.Fatalf("compressed at 1.10x: %v", err)
	}
	_, err := Run(Fop, RunConfig{
		HeapMB: heapMB, Collector: gc.G1, Iterations: 1, Events: 300, Seed: 1,
		DisableCompressedOops: true,
	})
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("uncompressed at 1.10x should OOM, got %v", err)
	}
}

func TestWarmupImprovesIterations(t *testing.T) {
	res := smallRun(t, Jython, RunConfig{Collector: gc.G1, Iterations: 6, Seed: 3, Events: 400})
	first := res.Iterations[0].WallNS
	last := res.Last().WallNS
	if last >= first {
		t.Fatalf("no warmup: iteration 0 %v vs last %v", first, last)
	}
}

func TestTightHeapSlowsExecution(t *testing.T) {
	loose := smallRun(t, Biojava, RunConfig{
		Collector: gc.G1, Iterations: 2, Seed: 2, Events: 400,
		HeapMB: 6 * Biojava.MinHeapMB,
	})
	tight := smallRun(t, Biojava, RunConfig{
		Collector: gc.G1, Iterations: 2, Seed: 2, Events: 400,
		HeapMB: 1.05 * Biojava.MinHeapMB,
	})
	if tight.Last().WallNS <= loose.Last().WallNS {
		t.Fatalf("tight heap %v not slower than loose %v",
			tight.Last().WallNS, loose.Last().WallNS)
	}
}

func TestLeakyWorkloadGrowsHeap(t *testing.T) {
	res := smallRun(t, Zxing, RunConfig{
		Collector: gc.G1, Iterations: 4, Seed: 2, Events: 300,
		HeapMB: 4 * Zxing.MinHeapMB,
	})
	var lastLive float64
	for _, e := range res.Log.Events {
		lastLive = e.LiveAfter
	}
	if lastLive <= Zxing.LiveMB*MB {
		t.Fatalf("leaky workload live %v did not grow beyond base %v",
			lastLive, Zxing.LiveMB*MB)
	}
}

func TestBuildPhasePopulatesH2Database(t *testing.T) {
	res := smallRun(t, H2, RunConfig{Collector: gc.G1, Iterations: 1, Seed: 2, Events: 600})
	// The build phase must be excluded from latency events.
	want := 600 - int(0.30*600)
	if len(res.Events) != want {
		t.Fatalf("latency events = %d, want %d (build excluded)", len(res.Events), want)
	}
	// The heap must end up holding the database.
	if live := res.Log.Events[len(res.Log.Events)-1].LiveAfter; live < H2.LiveMB*MB*0.85 {
		t.Fatalf("live after run = %v, want >=85%% of %v", live, H2.LiveMB*MB)
	}
}

func TestEventsAreOrderedAndPositive(t *testing.T) {
	res := smallRun(t, Spring, RunConfig{Collector: gc.Parallel, Iterations: 1, Seed: 4})
	for i, e := range res.Events {
		if e.End < e.Start {
			t.Fatalf("event %d inverted: %+v", i, e)
		}
	}
}

func TestKernelTimeAccounted(t *testing.T) {
	res := smallRun(t, Kafka, RunConfig{Collector: gc.G1, Iterations: 1, Seed: 5})
	it := res.Last()
	frac := it.KernelNS / (it.CPUNS)
	// kafka's mutators spend 25% of their CPU in the kernel; GC CPU dilutes
	// the ratio but it must remain clearly positive.
	if frac <= 0.05 || frac > 0.30 {
		t.Fatalf("kernel fraction = %v, want ~0.1-0.25", frac)
	}
}

func TestServiceSizingMatchesPET(t *testing.T) {
	// An unconstrained run should take roughly PET seconds of wall time.
	res := smallRun(t, Jme, RunConfig{
		Collector: gc.G1, Iterations: 2, Seed: 6,
		HeapMB: 6 * Jme.MinHeapMB, Events: Jme.Events,
	})
	wallSec := res.Last().WallNS / 1e9
	if wallSec < Jme.PETSeconds*0.5 || wallSec > Jme.PETSeconds*2.5 {
		t.Fatalf("iteration wall %vs, want ~%vs", wallSec, Jme.PETSeconds)
	}
}

func TestGCLogConsistency(t *testing.T) {
	res := smallRun(t, H2o, RunConfig{Collector: gc.Serial, Iterations: 2, Seed: 9})
	if res.Log.Count(trace.GCYoung) == 0 {
		t.Fatal("no young collections for a high-turnover workload at 2x heap")
	}
	for _, e := range res.Log.Events {
		if e.End < e.Start {
			t.Fatalf("event time inverted: %+v", e)
		}
		if e.Reclaimed < 0 || e.UsedAfter < 0 {
			t.Fatalf("negative telemetry: %+v", e)
		}
	}
}

func TestScaledSizes(t *testing.T) {
	d := H2
	small := d.Scaled(SizeSmall)
	large := d.Scaled(SizeLarge)
	vlarge := d.Scaled(SizeVLarge)
	if d.Scaled(SizeDefault) != d {
		t.Fatal("default size should return the descriptor itself")
	}
	if small.LiveMB >= d.LiveMB || large.LiveMB <= d.LiveMB || vlarge.LiveMB <= large.LiveMB {
		t.Fatalf("live scaling broken: %v %v %v %v",
			small.LiveMB, d.LiveMB, large.LiveMB, vlarge.LiveMB)
	}
	// The paper: h2's vlarge minimum heap is ~20GB against a 681MB default.
	if got := vlarge.MinHeapMB; got < 15000 || got > 25000 {
		t.Fatalf("h2 vlarge min heap = %vMB, want ~20GB", got)
	}
	if small.ARA != d.ARA {
		t.Fatal("allocation rate is intrinsic and must not scale")
	}
	if err := vlarge.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSize(t *testing.T) {
	for _, s := range []Size{SizeDefault, SizeSmall, SizeLarge, SizeVLarge} {
		got, err := ParseSize(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSize(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Fatal("unknown size should error")
	}
}

func TestScaledVLargeRuns(t *testing.T) {
	// A vlarge workload must actually run: 30x live set, heap to match.
	d := Fop.Scaled(SizeVLarge)
	res, err := Run(d, RunConfig{
		HeapMB: d.LiveMB * 2, Collector: gc.G1, Iterations: 1, Events: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Last().Allocated <= 0 {
		t.Fatal("no allocation recorded")
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{Batch: "batch", Request: "request", Frame: "frame", Class(9): "class(9)"}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", c, got, s)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	base := *Fop
	cases := []func(*Descriptor){
		func(d *Descriptor) { d.Name = "" },
		func(d *Descriptor) { d.Threads = 0 },
		func(d *Descriptor) { d.Events = 0 },
		func(d *Descriptor) { d.PETSeconds = 0 },
		func(d *Descriptor) { d.ARA = -1 },
		func(d *Descriptor) { d.LiveMB = -1 },
		func(d *Descriptor) { d.BuildFrac = 1.5 },
		func(d *Descriptor) { d.KernelFrac = 2 },
	}
	for i, mutate := range cases {
		d := base
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid descriptor accepted", i)
		}
	}
	// A heap that is not a positive finite size is rejected before anything
	// is simulated.
	for _, heap := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		_, err := Run(Lusearch, RunConfig{HeapMB: heap, Collector: gc.G1, Iterations: 1, Events: 100, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "MB invalid") {
			t.Errorf("heap %v: err = %v, want an invalid-heap rejection", heap, err)
		}
	}
	// The smallest positive heaps pass that check and reach heap.New, whose
	// positive-size assertion they must not trip: 5e-324 MB is still a
	// positive byte count. Both runs end as OutOfMemory.
	for _, heap := range []float64{1e-7, 5e-324} {
		_, err := Run(Lusearch, RunConfig{HeapMB: heap, Collector: gc.G1, Iterations: 1, Events: 100, Seed: 1})
		var oom *ErrOutOfMemory
		if !errors.As(err, &oom) {
			t.Errorf("heap %v MB: err = %v, want OutOfMemory", heap, err)
		}
	}
	// A collector with no preset is rejected too, unless explicit parameters
	// stand in for the preset.
	_, err := Run(Fop, RunConfig{HeapMB: 100, Collector: gc.Kind(99)})
	if err == nil || !strings.Contains(err.Error(), "unknown collector") {
		t.Errorf("Kind(99): err = %v, want an unknown-collector rejection", err)
	}
	p := gc.G1.Params(cpuarch.Zen4.Cores)
	if _, err := Run(Fop, RunConfig{HeapMB: 100, Collector: gc.Kind(99), CollectorParams: &p,
		Iterations: 1, Events: 50, Seed: 1}); err != nil {
		t.Errorf("Kind(99) with explicit params: %v", err)
	}
}

func TestSizingHelpers(t *testing.T) {
	d := Fop
	// Default-events path (0 argument).
	if got, want := d.ServiceMedianNS(0), d.ServiceMedianNS(d.Events); got != want {
		t.Fatalf("ServiceMedianNS default = %v, want %v", got, want)
	}
	if got, want := d.BytesPerEvent(0), d.BytesPerEvent(d.Events); got != want {
		t.Fatalf("BytesPerEvent default = %v, want %v", got, want)
	}
	// Total allocation is events-invariant (rate is intrinsic).
	tot1 := d.BytesPerEvent(100) * 100
	tot2 := d.BytesPerEvent(1000) * 1000
	if math.Abs(tot1-tot2) > 1 {
		t.Fatalf("total allocation depends on event count: %v vs %v", tot1, tot2)
	}
}

func TestErrOutOfMemoryMessage(t *testing.T) {
	e := &ErrOutOfMemory{Workload: "fop", HeapMB: 7, Kind: gc.ZGC}
	msg := e.Error()
	for _, want := range []string{"fop", "ZGC", "7"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestMicroErrorMessage(t *testing.T) {
	_, err := MicroByName("zap")
	if err == nil || !strings.Contains(err.Error(), "zap") {
		t.Fatalf("micro error = %v", err)
	}
}

func TestOpenLoopMode(t *testing.T) {
	res, err := Run(Spring, RunConfig{
		HeapMB: 3 * Spring.MinHeapMB, Collector: gc.G1,
		Iterations: 2, Events: 600, Seed: 5, OpenLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 600 {
		t.Fatalf("events = %d, want 600", len(res.Events))
	}
	for i, e := range res.Events {
		if e.End < e.Start {
			t.Fatalf("event %d inverted: %+v", i, e)
		}
	}
	// Arrival spacing: starts are the scheduled arrivals, ~uniform.
	first, last := res.Events[0].Start, res.Events[len(res.Events)-1].Start
	span := float64(last - first)
	nominal := Spring.PETSeconds * 1e9
	if span < 0.5*nominal || span > 1.5*nominal {
		t.Fatalf("arrival span %v, want ~%v", span, nominal)
	}
}

func TestOpenLoopQueueingRaisesTail(t *testing.T) {
	// The whole point of open loop: when the system stalls (GC pause), the
	// queue backs up and later events pay for it from their arrival time.
	// Closed-loop simple latency hides that; open-loop latency must be at
	// least as heavy in the tail as closed-loop simple latency under the
	// same pausing collector at a tight heap.
	run := func(open bool) float64 {
		res, err := Run(Lusearch, RunConfig{
			HeapMB: 1.5 * Lusearch.MinHeapMB, Collector: gc.Serial,
			Iterations: 2, Events: 800, Seed: 6, OpenLoop: open,
		})
		if err != nil {
			t.Fatal(err)
		}
		var max float64
		for _, e := range res.Events {
			if d := float64(e.End - e.Start); d > max {
				max = d
			}
		}
		return max
	}
	openTail := run(true)
	closedTail := run(false)
	if openTail < closedTail*0.9 {
		t.Fatalf("open-loop tail %v should not be lighter than closed-loop %v",
			openTail, closedTail)
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	run := func() float64 {
		res, err := Run(Kafka, RunConfig{
			HeapMB: 2 * Kafka.MinHeapMB, Collector: gc.G1,
			Iterations: 1, Events: 300, Seed: 9, OpenLoop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Last().WallNS
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("open loop not deterministic: %v vs %v", a, b)
	}
}

func TestMytkowiczBiasIsRepeatableAndBounded(t *testing.T) {
	a := Setup{EnvBytes: 1024, LinkSeed: 7}
	if a.Bias() != a.Bias() {
		t.Fatal("setup bias must be deterministic")
	}
	for i := 0; i < 200; i++ {
		b := Setup{EnvBytes: 512 + i*13, LinkSeed: uint64(i)}.Bias()
		if b < 0.96-1e-9 || b > 1.04+1e-9 {
			t.Fatalf("bias %v outside the modelled band", b)
		}
	}
}

func TestMytkowiczPitfallDemonstrable(t *testing.T) {
	// Two fixed setups, identical workload and seed: the measured times
	// differ by the hidden layout bias — perfectly repeatable, so it looks
	// like a real effect (the paper's Section 4.3 warning).
	run := func(setup *Setup) float64 {
		res, err := Run(Fop, RunConfig{
			HeapMB: 3 * Fop.MinHeapMB, Collector: gc.G1,
			Iterations: 2, Events: 300, Seed: 5, Setup: setup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Last().WallNS
	}
	// Search for two setups with clearly different biases.
	s1 := Setup{EnvBytes: 600, LinkSeed: 1}
	var s2 Setup
	for i := 0; i < 100; i++ {
		s2 = Setup{EnvBytes: 600 + i*17, LinkSeed: uint64(i)}
		if math.Abs(s2.Bias()-s1.Bias()) > 0.03 {
			break
		}
	}
	t1, t2 := run(&s1), run(&s2)
	if t1 == t2 {
		t.Fatal("distinct setups produced identical times; bias not applied")
	}
	ratio := t1 / t2
	wantRatio := s1.Bias() / s2.Bias()
	if math.Abs(ratio-wantRatio) > 0.02 {
		t.Fatalf("measured ratio %v, biases predict %v", ratio, wantRatio)
	}
	// The mitigation: randomized setups expose the bias as variance with a
	// mean near neutral.
	setups := RandomizedSetups(64, 9)
	var sum float64
	for _, s := range setups {
		sum += s.Bias()
	}
	if mean := sum / float64(len(setups)); math.Abs(mean-1) > 0.01 {
		t.Fatalf("randomized setups mean bias %v, want ~1", mean)
	}
}
