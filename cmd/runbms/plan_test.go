package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestDecodePlanCommittedPlans: every plan under experiments/ passes
// validation.
func TestDecodePlanCommittedPlans(t *testing.T) {
	paths, err := filepath.Glob("../../experiments/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed plans found: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodePlan(raw); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestDecodePlanRejects: each kind of bad plan is refused with a PlanError
// naming the offending experiment, before anything runs.
func TestDecodePlanRejects(t *testing.T) {
	cases := map[string]string{
		"syntax":         `{"experiments": [`,
		"unknown type":   `{"experiments": [{"name": "a", "type": "lbo"}, {"name": "b", "type": "sweep"}]}`,
		"bad benchmark":  `{"experiments": [{"name": "a", "type": "lbo", "benchmarks": ["nope"]}]}`,
		"bad collector":  `{"experiments": [{"name": "a", "type": "lbo", "collectors": ["CMS"]}]}`,
		"zero factor":    `{"experiments": [{"name": "a", "type": "lbo", "heap_factors": [1, 0]}]}`,
		"negative":       `{"experiments": [{"name": "a", "type": "latency", "heap_factors": [-2]}]}`,
		"negative count": `{"experiments": [{"name": "a", "type": "lbo", "invocations": -1}]}`,
		"empty name":     `{"experiments": [{"type": "lbo"}]}`,
		"slash in name":  `{"experiments": [{"name": "../x", "type": "lbo"}]}`,
		"backslash":      `{"experiments": [{"name": "a\\b", "type": "lbo"}]}`,
	}
	for name, raw := range cases {
		plan, err := decodePlan([]byte(raw))
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got plan %+v, err %v; want a PlanError", name, plan, err)
		}
	}
}

// FuzzDecodePlan: decodePlan never panics, and it either refuses the input
// with a PlanError or returns a plan whose encoding decodes to the same
// encoding again.
func FuzzDecodePlan(f *testing.F) {
	paths, _ := filepath.Glob("../../experiments/*.json")
	for _, p := range paths {
		if raw, err := os.ReadFile(p); err == nil {
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		plan, err := decodePlan(raw)
		if err != nil {
			var pe *PlanError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a PlanError", err, err)
			}
			return
		}
		enc, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodePlan(enc)
		if err != nil {
			t.Fatalf("re-encoded plan %s rejected: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("plan re-encodes unstably:\n%s\n%s", enc, enc2)
		}
	})
}
