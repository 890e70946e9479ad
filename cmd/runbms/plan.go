package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"chopin/internal/gc"
	"chopin/internal/workload"
)

// Plan is the top-level experiment file.
type Plan struct {
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one entry of a plan.
type Experiment struct {
	Name        string    `json:"name"`
	Type        string    `json:"type"` // lbo | latency | heaptrace | pca | nominal | calibration | appendix
	Benchmarks  []string  `json:"benchmarks"`
	Collectors  []string  `json:"collectors"`
	HeapFactors []float64 `json:"heap_factors"`
	Invocations int       `json:"invocations"`
	Iterations  int       `json:"iterations"`
	Events      int       `json:"events"`
	Seed        uint64    `json:"seed"`

	// Resolved by decodePlan: the named benchmarks (the whole suite when
	// none are named) and collectors (nil selects the paper's defaults).
	descs []*workload.Descriptor
	kinds []gc.Kind
}

var experimentTypes = map[string]bool{
	"lbo": true, "latency": true, "heaptrace": true, "pca": true, "nominal": true,
	"calibration": true, "appendix": true,
}

// PlanError is why decodePlan rejected a plan: the experiment at Index, or
// the plan as a whole when Index is -1.
type PlanError struct {
	Index int
	Name  string
	Err   error
}

func (e *PlanError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("plan: %v", e.Err)
	}
	return fmt.Sprintf("plan: experiment %d (%q): %v", e.Index, e.Name, e.Err)
}

func (e *PlanError) Unwrap() error { return e.Err }

// decodePlan decodes a plan and validates all of it — known types, names
// that resolve, positive heap factors, non-negative counts, and experiment
// names usable as file-name prefixes — so a bad plan is refused before any
// of its experiments start.
func decodePlan(raw []byte) (*Plan, error) {
	var plan Plan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return nil, &PlanError{Index: -1, Err: err}
	}
	for i := range plan.Experiments {
		exp := &plan.Experiments[i]
		if err := exp.resolve(); err != nil {
			return nil, &PlanError{Index: i, Name: exp.Name, Err: err}
		}
	}
	return &plan, nil
}

func (exp *Experiment) resolve() error {
	switch {
	case exp.Name == "":
		return errors.New("empty name")
	case strings.ContainsAny(exp.Name, `/\`):
		return fmt.Errorf("name %q contains a path separator", exp.Name)
	case !experimentTypes[exp.Type]:
		return fmt.Errorf("unknown type %q", exp.Type)
	case exp.Invocations < 0 || exp.Iterations < 0 || exp.Events < 0:
		return fmt.Errorf("negative count (invocations %d, iterations %d, events %d)",
			exp.Invocations, exp.Iterations, exp.Events)
	}
	for _, f := range exp.HeapFactors {
		if f <= 0 {
			return fmt.Errorf("heap factor %v is not positive", f)
		}
	}
	exp.descs = workload.All()
	if len(exp.Benchmarks) > 0 {
		exp.descs = nil
		for _, n := range exp.Benchmarks {
			d, err := workload.ByName(n)
			if err != nil {
				return err
			}
			exp.descs = append(exp.descs, d)
		}
	}
	for _, name := range exp.Collectors {
		k, err := gc.ParseKind(name)
		if err != nil {
			return err
		}
		exp.kinds = append(exp.kinds, k)
	}
	return nil
}
