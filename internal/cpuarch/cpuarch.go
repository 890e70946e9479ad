// Package cpuarch models the processor on which the simulated workloads run.
//
// The paper characterizes workloads with microarchitectural nominal
// statistics (UIP, UDC, ULL, USB, USF, ...) gathered from hardware
// performance counters, and with sensitivity experiments that re-run
// workloads under a modified machine: reduced last-level cache (PLS), slower
// DRAM (PMS), frequency boost (PFS), and entirely different processors
// (UAI, UAA). We reproduce that with a share-based top-down model: a
// workload's cycles on the reference machine are partitioned into
// frequency-scaled compute, on-chip memory stalls, and DRAM-bound stalls
// (whose nanosecond cost is frequency-independent); sensitivity experiments
// are then literally "swap the machine and re-evaluate" — the same shape as
// the paper's methodology. The shares are derived from the workload's
// published top-down fractions, so the reference machine reproduces the
// published IPC by construction and the sensitivity responses follow from
// how memory-bound the workload is.
package cpuarch

import (
	"fmt"
	"math"
)

// Machine describes a processor configuration.
type Machine struct {
	Name      string
	Cores     int     // physical cores
	HWThreads int     // hardware threads (with SMT)
	FreqGHz   float64 // operating frequency
	// IssueWidth bounds attainable ILP; reported IPC is clamped to it.
	IssueWidth float64
	// L2Latency is the average penalty, in cycles, of an L1D miss that is
	// served on-chip (L2/L3 hit). Used to apportion memory-bound cycles
	// between on-chip and DRAM stalls.
	L2Latency float64
	// DRAMLatencyNS is the average DRAM access latency in nanoseconds. Its
	// nanosecond cost does not shrink with frequency, which is why
	// memory-bound workloads gain little from frequency scaling.
	DRAMLatencyNS float64
	// LLCSizeMB is the last-level cache capacity.
	LLCSizeMB float64
	// SMTYield is the marginal capacity contributed by the second hardware
	// thread of a core, as a fraction of a full core (e.g. 0.3).
	SMTYield float64
	// PerfRatio is the machine's single-thread performance on a neutral
	// compute-bound workload relative to the reference machine (>1 = faster).
	PerfRatio float64
}

// Profile is a workload's intrinsic microarchitectural behaviour: the
// hardware-independent characterization that, combined with a Machine,
// determines its execution rate. The units follow the paper's Table 1.
type Profile struct {
	// TargetIPC is the workload's instructions-per-cycle on the reference
	// machine (paper metric UIP / 100).
	TargetIPC float64
	// DCMissPerKI is L1 data-cache misses per 1000 instructions (UDC).
	DCMissPerKI float64
	// DTLBMissPerMI is DTLB misses per million instructions (UDT).
	DTLBMissPerMI float64
	// LLCMissPerMI is last-level-cache misses per million instructions (ULL).
	LLCMissPerMI float64
	// MispredictFrac1000 is 1000 x the fraction of slots lost to branch
	// mispredicts (UBP).
	MispredictFrac1000 float64
	// RestartFrac1M is 1e6 x the fraction of slots lost to pipeline
	// restarts (UBR).
	RestartFrac1M float64
	// BadSpecFrac1000 is 1000 x the total bad-speculation fraction (UBS).
	BadSpecFrac1000 float64
	// FrontEndBound is the fraction of slots lost to the front end (USF/100).
	FrontEndBound float64
	// BackEndBound is the fraction of slots lost to the back end (USB/100).
	BackEndBound float64
	// BackEndMemory is the memory subset of the back-end-bound fraction
	// (UBM/100); the rest of the back end is core-bound (execution ports,
	// dividers, ...), which scales with frequency.
	BackEndMemory float64
	// ExternalBound is the share of the workload's time spent waiting on
	// resources outside the CPU/memory system — GPU for jme, the network
	// stack for kafka/tomcat/cassandra, lock convoys. That share responds
	// to neither frequency, cache size nor DRAM speed, which is how those
	// workloads show near-zero PFS/PLS/PMS in the paper.
	ExternalBound float64
	// SMTContention is the workload's sensitivity to sharing a core with its
	// SMT sibling (USC / 1000, clamped to [0,1]); it erodes the machine's
	// SMTYield.
	SMTContention float64
	// LLCSensitivity is the exponent of the miss-rate power law
	// miss(size) = miss(ref) * (size/ref)^-LLCSensitivity, which drives the
	// PLS (cache-size sensitivity) experiment.
	LLCSensitivity float64
	// ARMAffinity and IntelAffinity are intrinsic cross-architecture
	// slowdowns (UAA, UAI as fractions, e.g. 0.53 = 53% slower) measured on
	// real silicon in the paper; they carry ISA- and core-design-specific
	// effects that a share model cannot derive, so they are declared traits
	// applied when running on the corresponding machine.
	ARMAffinity   float64
	IntelAffinity float64
}

// Reference machines. Zen4 mirrors the paper's AMD Ryzen 9 7950X testbed and
// is the configuration against which workload profiles are calibrated.
var (
	Zen4 = Machine{
		Name: "AMD Zen4 (Ryzen 9 7950X)", Cores: 16, HWThreads: 32,
		FreqGHz: 4.5, IssueWidth: 6,
		L2Latency: 14, DRAMLatencyNS: 75,
		LLCSizeMB: 64, SMTYield: 0.30, PerfRatio: 1,
	}
	GoldenCove = Machine{
		Name: "Intel Golden Cove (i9-12900KF)", Cores: 8, HWThreads: 16,
		FreqGHz: 5.1, IssueWidth: 6,
		L2Latency: 15, DRAMLatencyNS: 80,
		LLCSizeMB: 30, SMTYield: 0.28, PerfRatio: 0.95,
	}
	NeoverseN1 = Machine{
		Name: "ARM Neoverse N1 (Ampere Altra Q80-30)", Cores: 80, HWThreads: 80,
		FreqGHz: 3.0, IssueWidth: 4,
		L2Latency: 12, DRAMLatencyNS: 95,
		LLCSizeMB: 32, SMTYield: 0, PerfRatio: 0.55,
	}
)

// ZenBoostGHz is the boost frequency used for the PFS experiment.
const ZenBoostGHz = 5.4

// WithSlowDRAM returns the machine reconfigured to the paper's DDR5-2000
// memory-sensitivity experiment (roughly 1.8x the access latency).
func (m Machine) WithSlowDRAM() Machine {
	m.Name += " +slowDRAM"
	m.DRAMLatencyNS *= 1.8
	return m
}

// WithLLCScale returns the machine with its LLC scaled by factor (the paper's
// resctrl experiment uses 1/16).
func (m Machine) WithLLCScale(factor float64) Machine {
	if factor <= 0 {
		panic(fmt.Sprintf("cpuarch: LLC scale must be positive, got %v", factor))
	}
	m.Name += fmt.Sprintf(" LLCx%.3g", factor)
	m.LLCSizeMB *= factor
	return m
}

// WithBoost returns the machine with Core Performance Boost enabled (the
// paper's frequency-scaling experiment; Zen4 boosts 4.5 -> ~5.4 GHz).
func (m Machine) WithBoost(freqGHz float64) Machine {
	m.Name += " +boost"
	m.FreqGHz = freqGHz
	return m
}

// shares partitions the workload's reference-machine execution time into a
// DRAM-bound share (frequency-independent nanoseconds, scales with DRAM
// latency and LLC miss rate), an external-wait share (responds to nothing),
// and everything else (scales with frequency).
func (p Profile) shares() (dram, external, other float64) {
	memShare := p.BackEndMemory
	if memShare < 0 {
		memShare = 0
	}
	if memShare > 0.95 {
		memShare = 0.95
	}
	external = p.ExternalBound
	if external < 0 {
		external = 0
	}
	if external > 0.98 {
		external = 0.98
	}
	// Apportion the memory-bound share between DRAM and on-chip stalls in
	// proportion to their modelled cycle contributions on the reference
	// machine. The memory share applies to the CPU-attributed remainder.
	dramCyc := p.LLCMissPerMI / 1e6 * Zen4.DRAMLatencyNS * Zen4.FreqGHz
	chipCyc := p.DCMissPerKI / 1000 * Zen4.L2Latency
	if dramCyc+chipCyc > 0 {
		dram = (1 - external) * memShare * dramCyc / (dramCyc + chipCyc)
	}
	return dram, external, 1 - dram - external
}

// llcMissFactor returns the multiplier on LLC misses when running with the
// given LLC size instead of the reference.
func (p Profile) llcMissFactor(m Machine) float64 {
	if p.LLCSensitivity <= 0 || m.LLCSizeMB == Zen4.LLCSizeMB {
		return 1
	}
	return math.Pow(m.LLCSizeMB/Zen4.LLCSizeMB, -p.LLCSensitivity)
}

// TimeFactor returns the multiplicative slowdown (>1) or speedup (<1) of
// running the workload on machine m instead of the reference Zen4 machine.
// The simulator multiplies every mutator quantum by this factor, so machine
// sensitivity experiments flow through to measured run times.
func (p Profile) TimeFactor(m Machine) float64 {
	switch m.Name {
	case GoldenCove.Name:
		return 1 + p.IntelAffinity
	case NeoverseN1.Name:
		return 1 + p.ARMAffinity
	}
	dram, external, other := p.shares()
	// DRAM-bound nanoseconds scale with DRAM latency and miss count;
	// external waits scale with nothing; the rest scales inversely with
	// frequency (and the machine's IPC-neutral performance ratio).
	dramPart := dram * (m.DRAMLatencyNS / Zen4.DRAMLatencyNS) * p.llcMissFactor(m)
	otherPart := other * (Zen4.FreqGHz / m.FreqGHz) / m.PerfRatio
	return dramPart + external + otherPart
}

// IPC returns the modelled instructions per cycle on machine m: the reference
// IPC corrected for the machine's time factor and frequency, clamped to the
// issue width.
func (p Profile) IPC(m Machine) float64 {
	if p.TargetIPC <= 0 {
		return 0
	}
	// instructions/ns on reference = TargetIPC * freq_ref; on m it is slower
	// by TimeFactor; divide by m's frequency to get per-cycle.
	ipc := p.TargetIPC * Zen4.FreqGHz / p.TimeFactor(m) / m.FreqGHz
	if ipc > m.IssueWidth {
		ipc = m.IssueWidth
	}
	return ipc
}

// Capacity returns a capacity function for the machine, eroded by the
// workload's SMT contention: the first Cores runnable threads scale
// perfectly; hardware threads beyond that contribute only the SMT yield.
func (m Machine) Capacity(smtContention float64) func(int) float64 {
	if smtContention < 0 {
		smtContention = 0
	}
	if smtContention > 1 {
		smtContention = 1
	}
	yield := m.SMTYield * (1 - smtContention)
	return func(n int) float64 {
		if n <= m.Cores {
			return float64(n)
		}
		extra := n - m.Cores
		if max := m.HWThreads - m.Cores; extra > max {
			extra = max
		}
		return float64(m.Cores) + yield*float64(extra)
	}
}

// TopDown summarizes the pipeline-slot breakdown for reporting: the fractions
// of slots attributed to retiring, front-end, bad speculation and back-end
// (with the memory subset), mirroring the paper's U-group stats.
type TopDown struct {
	IPC           float64
	Retiring      float64
	FrontEnd      float64
	BadSpec       float64
	BackEnd       float64
	BackEndMemory float64
}

// Analyze returns the top-down breakdown for the profile on machine m. On
// the reference machine it reproduces the declared fractions; on other
// machines the memory-bound share is rescaled by the modelled stall change.
func (p Profile) Analyze(m Machine) TopDown {
	front := p.FrontEndBound
	spec := p.BadSpecFrac1000 / 1000
	back := p.BackEndBound
	mem := p.BackEndMemory
	if m.Name != Zen4.Name {
		dram, _, _ := p.shares()
		grow := dram * ((m.DRAMLatencyNS/Zen4.DRAMLatencyNS)*p.llcMissFactor(m) - 1)
		back += grow
		mem += grow
	}
	retiring := 1 - front - spec - back
	if retiring < 0 {
		retiring = 0
	}
	return TopDown{
		IPC:           p.IPC(m),
		Retiring:      retiring,
		FrontEnd:      front,
		BadSpec:       spec,
		BackEnd:       back,
		BackEndMemory: mem,
	}
}
