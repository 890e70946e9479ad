package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// workloadNames are every workload the benchmark runs; BENCHMARK.json gates
// all but fleet-serve, which is kept for runs by hand.
var workloadNames = []string{"suite-cold", "suite-warm", "fleet-serve", "fleet-trace"}

// declared reads the metrics BENCHMARK.json declares, name -> unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range b.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range b.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func tinyRun(t *testing.T, name string, trace bool, expected map[string]string) *result {
	t.Helper()
	// Several reps, so medians and means are exercised; traced runs get
	// longer, so the CPU profile of even the shortest rep holds samples.
	seconds := 1.0
	if trace {
		seconds = 2
	}
	res, err := run(config{
		workload: name,
		seed:     42,
		seconds:  seconds,
		trace:    trace,
		size:     sizes["tiny"],
		out:      t.TempDir(),
		expected: expected,
		workers:  2,
		log:      io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The result is printed as one JSON line.
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// declares for that mode, with their units, and passes its output checks.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer, workloads := declared(t)
	if strings.Join(workloads, ",") != "suite-cold,suite-warm,fleet-trace" {
		t.Fatalf("BENCHMARK.json workloads %v, want suite-cold, suite-warm and fleet-trace", workloads)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, trace, nil)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace && res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v", name, res.Metrics["success_ratio"].Value)
			}
			if trace {
				total := res.Metrics["trace.profile_cpu_s"].Value
				var sum float64
				for _, l := range layers {
					sum += res.Metrics[l+".cpu_s"].Value
				}
				if total <= 0 || math.Abs(sum-total) > 1e-9 {
					t.Errorf("%s: layers sum to %vs, profile total %vs", name, sum, total)
				}
			}
		}
	}
}

// TestCorruptDigestFailsEveryOperation checks that an output that does not
// match its committed digest fails every operation of the run.
func TestCorruptDigestFailsEveryOperation(t *testing.T) {
	for _, name := range []string{"suite-cold", "fleet-trace"} {
		res := tinyRun(t, name, false, map[string]string{name: strings.Repeat("0", 64)})
		if res.Correct || res.Failed != res.Attempted || res.Metrics["success_ratio"].Value != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d success_ratio=%v",
				name, res.Correct, res.Attempted, res.Failed, res.Metrics["success_ratio"].Value)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the code's metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	endToEnd2, perLayer2, _ := declared(t)
	for _, c := range []struct {
		code []metric
		json map[string]string
	}{{endToEnd, endToEnd2}, {perLayer, perLayer2}} {
		if len(c.code) != len(c.json) {
			t.Errorf("code declares %d metrics, BENCHMARK.json %d", len(c.code), len(c.json))
		}
		for _, m := range c.code {
			if c.json[m.name] != m.unit {
				t.Errorf("metric %s: unit %q in code, %q in BENCHMARK.json", m.name, m.unit, c.json[m.name])
			}
		}
	}
}

// TestEveryPackageHasALayer fails when a package is added under internal/
// without a row in the layer table, which would abort every traced run.
func TestEveryPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if _, ok := pkgLayer[filepath.ToSlash(rel)]; !ok {
			t.Errorf("package chopin/internal/%s has no layer", filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttributeInnermostInternalFrame(t *testing.T) {
	p := &cpuProfile{
		stacks: [][]string{
			{"encoding/json.Marshal", "chopin/internal/persist.write", "chopin/internal/exper.(*Cache).writer"},
			{"runtime.gcBgMarkWorker"},
			{"crypto/sha256.block", "main.digest", "main.main"},
			{"main.(*jobLog).observe", "chopin/internal/exper.(*Engine).emit"},
			{"chopin/internal/sim.(*ordHeap[go.shape.struct { chopin/internal/heap.x int }]).push"},
		},
		cpuNS:   []int64{10, 20, 30, 40, 50},
		totalNS: 150,
	}
	got, err := p.attribute()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"exper": 50, "goruntime": 20, "bench": 30, "sim": 50}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("%s = %d, want %d (all: %v)", l, got[l], ns, got)
		}
	}
}
