package fleet

import (
	"fmt"
	"math"
)

// Typed configuration validation. A fleet cell is cached under its config's
// content hash, so a nonsense config must be rejected with a diagnosable
// error before it can run (or worse, silently coerce into a different cell:
// a zero-replica cell is a config bug, not a one-replica fleet).

// ConfigError reports a rejected fleet configuration: which field, and why.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("fleet: invalid config: %s: %s", e.Field, e.Reason)
}

// finite rejects NaN and ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks a fleet config before normalize fills its defaults. Zero
// values of optional fields are legal (they select defaults); explicitly
// out-of-range values — negative replica counts, non-finite rates — return a
// *ConfigError.
func (cfg Config) Validate() error {
	if cfg.Replicas < 0 {
		return &ConfigError{"replicas", fmt.Sprintf("must be >= 1 (got %d; 0 selects the default)", cfg.Replicas)}
	}
	if cfg.Requests < 0 {
		return &ConfigError{"requests", fmt.Sprintf("must be >= 0 (got %d)", cfg.Requests)}
	}
	if cfg.Policy != "" {
		if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
			return &ConfigError{"policy", err.Error()}
		}
	}
	if !finite(cfg.RetryAfterNS) || cfg.RetryAfterNS < 0 {
		return &ConfigError{"retry_after_ns", fmt.Sprintf("must be a finite non-negative duration (got %v)", cfg.RetryAfterNS)}
	}
	if cfg.MaxRetries < 0 {
		return &ConfigError{"max_retries", fmt.Sprintf("must be >= 0 (got %d)", cfg.MaxRetries)}
	}
	if cfg.HostCores < 0 {
		return &ConfigError{"host_cores", fmt.Sprintf("must be >= 0 (got %d)", cfg.HostCores)}
	}
	if !finite(cfg.Run.OpenLoopHeadroom) || cfg.Run.OpenLoopHeadroom < 0 {
		return &ConfigError{"run.open_loop_headroom", fmt.Sprintf("must be a finite non-negative factor (got %v)", cfg.Run.OpenLoopHeadroom)}
	}
	if cfg.Run.Recorder != nil {
		return &ConfigError{"run.recorder", "must be nil: fleet telemetry goes to Run's recorder, or to the engine's Options.Recorder for a sweep"}
	}
	return nil
}

// validate checks a sweep's grid axes. Empty axes are legal (they default to
// the base config's value); present entries must each describe a runnable
// cell — a replica ladder of positive fleet sizes, finite rates, known
// policies.
func (sw Sweep) validate() error {
	for _, n := range sw.Replicas {
		if n < 1 {
			return &ConfigError{"replicas axis", fmt.Sprintf("fleet sizes must be >= 1 (got %d)", n)}
		}
	}
	for _, p := range sw.Policies {
		if _, err := ParsePolicy(string(p)); err != nil {
			return &ConfigError{"policies axis", err.Error()}
		}
	}
	for _, r := range sw.Rates {
		if !finite(r) || r < 0 {
			return &ConfigError{"rates axis", fmt.Sprintf("headroom factors must be finite and non-negative (got %v)", r)}
		}
	}
	return sw.Base.Validate()
}
