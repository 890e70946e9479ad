// Package workload defines the 22 DaCapo-Chopin-style benchmark models and
// the runtime that executes them on the simulated machine.
//
// Each workload is a Descriptor: the mechanistic parameters that drive the
// simulation (worker threads, per-event service cost, allocation rate, live
// set and its phases, object demographics) plus the intrinsic trait profiles
// (microarchitectural behaviour, compiler sensitivity, bytecode mix) that
// feed the CPU model and the nominal-statistics characterization. The
// mechanistic parameters are calibrated so that measured nominal statistics
// land near the values the paper publishes for the real suite; the traits are
// taken from the paper's appendix tables directly.
package workload

import (
	"fmt"
	"sort"

	"chopin/internal/cpuarch"
	"chopin/internal/heap"
	"chopin/internal/jit"
)

// ModelDigest is the SHA-256 of the golden fixtures under testdata/golden,
// which pin every collector under both request disciplines, the Shenandoah
// stress case and OOM (TestModelDigest recomputes it). The experiment engine
// mixes it into every job key, so a model change that moves a golden
// invalidates every cached result.
const ModelDigest = "5b6c60f05e6a42670d667f8456d17d19c4855a07bc5a599acced9c7f9e966270"

// Class describes a workload's execution structure.
type Class int

// Workload classes.
const (
	// Batch workloads run a fixed amount of divisible work to completion
	// (compilers, renderers, analyzers).
	Batch Class = iota
	// Request workloads process a pre-determined stream of requests with a
	// pool of workers, DaCapo style: each worker starts its next request
	// when its previous one completes.
	Request
	// Frame workloads render consecutive frames on a single driving thread
	// plus helpers (jme).
	Frame
)

func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Request:
		return "request"
	case Frame:
		return "frame"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// MB is a megabyte in bytes, as a float for heap arithmetic.
const MB = float64(1 << 20)

// Traits carries the intrinsic per-workload statistics that are not
// derivable from the heap/CPU simulation: bytecode-mix measures gathered by
// instrumentation in the real suite and a few hardware-measured values. They
// feed the nominal-statistics report and the PCA exactly as published.
type Traits struct {
	BAL float64 // aaload per usec
	BAS float64 // aastore per usec
	BEF float64 // execution focus / hot-code dominance
	BGF float64 // getfield per usec
	BPF float64 // putfield per usec
	BUB float64 // thousands of unique bytecodes executed
	BUF float64 // thousands of unique function calls
	PPE float64 // parallel efficiency, % of ideal 32-thread speedup
	PFS float64 // published frequency-scaling speedup % (cross-check)
	PLS float64 // published LLC-sensitivity % (cross-check)
	PMS float64 // published memory-speed sensitivity % (cross-check)
	GSS float64 // published heap-size sensitivity % (cross-check)
	UIP float64 // published 100 x IPC (cross-check for the CPU model)
}

// Descriptor is the complete definition of one benchmark.
type Descriptor struct {
	Name        string
	Description string
	Class       Class
	// LatencySensitive marks the nine workloads that time every event and
	// report request latency.
	LatencySensitive bool
	// NewInChopin marks the eight workloads introduced by this release.
	NewInChopin bool
	// Estimated marks workloads whose calibration targets were estimated
	// (our source text truncated their appendix tables).
	Estimated bool

	// Threads is the number of mutator workers (the workload's effective
	// parallelism, which folds in its real-world parallel efficiency).
	Threads int
	// Events is the default number of requests/chunks/frames per iteration.
	Events int
	// PETSeconds is the nominal single-iteration execution time the workload
	// is calibrated to (nominal statistic PET).
	PETSeconds float64
	// ARA is the nominal allocation rate in bytes per wall microsecond.
	ARA float64
	// ServiceSigma is the log-normal shape of per-event service cost.
	ServiceSigma float64

	// LiveMB is the steady-state live set in MB. BuildFrac is the fraction
	// of the first iteration spent constructing it (e.g. h2's database
	// population); during the build the live set ramps from near zero.
	LiveMB    float64
	BuildFrac float64
	// LeakMBPerIter grows the live set every iteration (nominal GLK).
	LeakMBPerIter float64

	// MinHeapMB is the published nominal minimum heap (GMD), used as a
	// calibration cross-check, never as simulator input.
	MinHeapMB float64

	Demo   heap.Demographics
	Arch   cpuarch.Profile
	Jit    jit.Model
	Traits Traits

	// KernelFrac is the share of mutator CPU spent in kernel mode (PKP/100).
	KernelFrac float64
}

// Validate reports the first configuration error in the descriptor.
func (d *Descriptor) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("workload: empty name")
	case d.Threads < 1:
		return fmt.Errorf("workload %s: threads %d < 1", d.Name, d.Threads)
	case d.Events < 1:
		return fmt.Errorf("workload %s: events %d < 1", d.Name, d.Events)
	case d.PETSeconds <= 0:
		return fmt.Errorf("workload %s: PET %v <= 0", d.Name, d.PETSeconds)
	case d.ARA < 0:
		return fmt.Errorf("workload %s: ARA %v < 0", d.Name, d.ARA)
	case d.LiveMB < 0:
		return fmt.Errorf("workload %s: live %vMB < 0", d.Name, d.LiveMB)
	case d.BuildFrac < 0 || d.BuildFrac >= 1:
		return fmt.Errorf("workload %s: build fraction %v out of [0,1)", d.Name, d.BuildFrac)
	case d.KernelFrac < 0 || d.KernelFrac > 1:
		return fmt.Errorf("workload %s: kernel fraction %v out of [0,1]", d.Name, d.KernelFrac)
	}
	return nil
}

// ServiceMedianNS returns the median per-event CPU cost, sized so an ideal
// GC-free iteration takes about PETSeconds of wall time: each of Threads
// workers processes Events/Threads events sequentially.
func (d *Descriptor) ServiceMedianNS(events int) float64 {
	if events < 1 {
		events = d.Events
	}
	return d.PETSeconds * 1e9 * float64(d.Threads) / float64(events)
}

// BytesPerEvent returns the allocation attached to each event, sized so an
// iteration allocates ARA bytes per microsecond of nominal wall time.
func (d *Descriptor) BytesPerEvent(events int) float64 {
	if events < 1 {
		events = d.Events
	}
	return d.ARA * d.PETSeconds * 1e6 / float64(events)
}

// registry of all workloads, populated by defs.go.
var registry = map[string]*Descriptor{}

func register(d *Descriptor) *Descriptor {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[d.Name]; dup {
		panic("workload: duplicate " + d.Name)
	}
	registry[d.Name] = d
	return d
}

// ByName returns the workload with the given name.
func ByName(name string) (*Descriptor, error) {
	d, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return d, nil
}

// Names returns all benchmark names in alphabetical order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns all descriptors in alphabetical name order.
func All() []*Descriptor {
	names := Names()
	out := make([]*Descriptor, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// LatencySensitive returns the latency-sensitive subset, in name order.
func LatencySensitive() []*Descriptor {
	var out []*Descriptor
	for _, d := range All() {
		if d.LatencySensitive {
			out = append(out, d)
		}
	}
	return out
}
