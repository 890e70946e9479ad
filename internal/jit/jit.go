// Package jit models the runtime's tiered just-in-time compiler as it affects
// benchmark timing.
//
// The paper's methodology (Recommendation P1, nominal statistics PWU, PIN,
// PCC, PCS) treats the compiler as a source of warmup transients and of
// configuration sensitivity: early iterations run partly interpreted or
// under the quick tier-1 compiler, and forcing extreme configurations
// (interpreter only, aggressive C2-everything) perturbs steady-state
// performance. We model this as a per-iteration speed multiplier: iteration
// zero carries the full interpretation/class-loading overhead, which decays
// geometrically so that the workload is within 1.5% of its best by its
// declared warmup iteration — exactly the paper's warmup criterion.
package jit

import "math"

// Config selects a compiler configuration, mirroring the paper's experiments.
type Config int

// Compiler configurations.
const (
	// Tiered is the default production configuration (interpreter -> C1 ->
	// C2 with profiling), the baseline for all other configs.
	Tiered Config = iota
	// InterpreterOnly disables compilation entirely (-Xint); the PIN
	// experiment.
	InterpreterOnly
	// ForcedC2 compiles everything aggressively with C2 up front (-Xcomp);
	// the PCC experiment. It pays a large compile-time cost early and a
	// residual cost from unprofiled code.
	ForcedC2
	// WorstTier is whichever configuration is worst for this workload; the
	// PCS experiment.
	WorstTier
)

func (c Config) String() string {
	switch c {
	case Tiered:
		return "tiered"
	case InterpreterOnly:
		return "interpreter"
	case ForcedC2:
		return "forced-c2"
	case WorstTier:
		return "worst-tier"
	}
	return "unknown"
}

// Model is a workload's compiler behaviour.
type Model struct {
	// WarmupIters is the number of iterations needed to come within 1.5% of
	// best performance under the tiered default (nominal statistic PWU).
	WarmupIters int
	// InterpFactor is the steady-state slowdown fraction when running
	// interpreter-only (PIN / 100, e.g. 2.77 = 277% slower).
	InterpFactor float64
	// C2Cost is the slowdown fraction of the first iteration under forced C2
	// compilation relative to the tiered baseline (PCC / 100).
	C2Cost float64
	// WorstFactor is the steady-state slowdown under the workload's worst
	// compiler configuration (PCS / 100).
	WorstFactor float64
}

// warmupTarget is the paper's warmup criterion: within 1.5% of best.
const warmupTarget = 0.015

// warmupAmplitude is the overhead of iteration zero relative to steady state
// under the tiered default. Cold code starts interpreted, so the amplitude
// scales with the workload's interpreter sensitivity, but only a fraction of
// iteration zero runs cold before tier-up.
func (m Model) warmupAmplitude() float64 {
	a := 0.25*m.InterpFactor + 0.10
	if a < warmupTarget {
		a = warmupTarget
	}
	return a
}

// Factor returns the execution-time multiplier for the given configuration
// and zero-based iteration, relative to fully warmed-up tiered execution.
// Factor(Tiered, large) -> 1.
func (m Model) Factor(cfg Config, iter int) float64 {
	if iter < 0 {
		iter = 0
	}
	switch cfg {
	case InterpreterOnly:
		// No compiler: no warmup transient, uniformly slow.
		return 1 + m.InterpFactor
	case ForcedC2:
		// All compilation happens in iteration zero; later iterations run
		// fully optimized with a small residual from profile-free code.
		if iter == 0 {
			return 1 + m.C2Cost
		}
		return 1 + 0.02*m.C2Cost
	case WorstTier:
		return 1 + m.WorstFactor
	default:
		return 1 + m.warmupAmplitude()*m.decay(iter)
	}
}

// decay returns the geometric warmup residual for iteration iter: 1 at
// iteration zero, warmupTarget/amplitude at iteration WarmupIters.
func (m Model) decay(iter int) float64 {
	if iter == 0 {
		return 1
	}
	w := m.WarmupIters
	if w < 1 {
		w = 1
	}
	a := m.warmupAmplitude()
	r := math.Pow(warmupTarget/a, 1/float64(w))
	return math.Pow(r, float64(iter))
}
