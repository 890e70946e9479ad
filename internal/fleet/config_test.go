package fleet

import (
	"errors"
	"math"
	"testing"

	"chopin/internal/exper"
	"chopin/internal/obs"
	"chopin/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	base := testConfig(1, RoundRobin)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"replicas", func(c *Config) { c.Replicas = -1 }},
		{"requests", func(c *Config) { c.Requests = -5 }},
		{"policy", func(c *Config) { c.Policy = "coin-flip" }},
		{"retry_after_ns", func(c *Config) { c.RetryAfterNS = math.NaN() }},
		{"retry_after_ns", func(c *Config) { c.RetryAfterNS = math.Inf(1) }},
		{"retry_after_ns", func(c *Config) { c.RetryAfterNS = -1 }},
		{"max_retries", func(c *Config) { c.MaxRetries = -2 }},
		{"host_cores", func(c *Config) { c.HostCores = -8 }},
		{"run.open_loop_headroom", func(c *Config) { c.Run.OpenLoopHeadroom = math.NaN() }},
		{"run.recorder", func(c *Config) { c.Run.Recorder = &obs.Buffer{} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: Validate() = %v, want *ConfigError", tc.field, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, ce)
		}
	}
}

// TestRunRejectsInvalidConfig: validation runs before any simulation state is
// built, so a bad config surfaces as a typed error from Run.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig(1, RoundRobin)
	cfg.Replicas = -3
	_, err := Run(workload.MicroPauseProbe, cfg, nil)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Run with replicas=-3 returned %v, want *ConfigError", err)
	}
}

// TestSweepRejectsZeroReplicaAxis is the regression test for the zero-replica
// landmine: before typed validation, a 0 in the replicas axis silently
// normalized into a one-replica cell (and a negative count was headed for
// round-robin's modulo). Now the sweep refuses the axis up front.
func TestSweepRejectsZeroReplicaAxis(t *testing.T) {
	eng := exper.New(exper.Options{Workers: 1})
	defer eng.Close()
	sw := testSweep()
	sw.Replicas = []int{1, 0, 2}
	_, err := RunSweep(eng, workload.MicroPauseProbe, sw)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("RunSweep with a zero-replica cell returned %v, want *ConfigError", err)
	}
	if ce.Field != "replicas axis" {
		t.Fatalf("ConfigError.Field = %q, want \"replicas axis\"", ce.Field)
	}
}

// TestSweepValidatesAxes: bad policies and non-finite rates are refused; a
// full 16→1024 replica ladder is accepted.
func TestSweepValidatesAxes(t *testing.T) {
	sw := testSweep()
	sw.Replicas = []int{16, 64, 256, 1024}
	if err := sw.validate(); err != nil {
		t.Fatalf("1024-replica ladder rejected: %v", err)
	}
	bad := testSweep()
	bad.Policies = []Policy{RoundRobin, "coin-flip"}
	if err := bad.validate(); err == nil {
		t.Fatal("unknown policy axis entry accepted")
	}
	bad = testSweep()
	bad.Rates = []float64{1.0, math.Inf(1)}
	if err := bad.validate(); err == nil {
		t.Fatal("infinite rate axis entry accepted")
	}
	bad = testSweep()
	bad.Base.RetryAfterNS = math.NaN()
	if err := bad.validate(); err == nil {
		t.Fatal("invalid base config accepted")
	}
}
