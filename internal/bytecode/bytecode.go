// Package bytecode is the suite's bytecode-instrumentation analogue.
//
// The real DaCapo Chopin gathers its seven B-group nominal statistics (BAL,
// BAS, BEF, BGF, BPF, BUB, BUF) and its allocation statistics by running
// workloads under bytecode instrumentation, and ships the instrumentation
// tools with the suite. Our workloads have no Java bytecode, so this package
// provides the honest equivalent: each workload's trait profile is expanded
// into a synthetic program — methods composed of JVM-like opcodes with a
// hotness distribution — and an instrumented executor runs it, counting
// opcode executions, unique instruction sites and unique methods. The
// B-group statistics are then *measured* from those counts exactly as the
// paper computes them: counts divided by uninstrumented execution time.
package bytecode

import (
	"fmt"

	"chopin/internal/sim"
)

// Opcode is a JVM-like abstract instruction.
type Opcode uint8

// The opcode set: the four the suite tracks explicitly, plus the filler mix
// that makes up real method bodies.
const (
	OpAALoad   Opcode = iota // array object load (BAL)
	OpAAStore                // array object store (BAS)
	OpGetField               // field read (BGF)
	OpPutField               // field write (BPF)
	OpILoad
	OpIStore
	OpIAdd
	OpIfCmp
	OpGoto
	OpInvoke
	OpReturn
	OpNew
	OpLdc
	OpArrayLen
	numOpcodes
)

func (o Opcode) String() string {
	names := [...]string{
		"aaload", "aastore", "getfield", "putfield", "iload", "istore",
		"iadd", "if_icmp", "goto", "invokevirtual", "return", "new", "ldc",
		"arraylength",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Targets are the trait values a synthesized program is built to reproduce.
type Targets struct {
	// Per-microsecond dynamic rates of the tracked opcodes.
	AALoadPerUS   float64 // BAL
	AAStorePerUS  float64 // BAS
	GetFieldPerUS float64 // BGF
	PutFieldPerUS float64 // BPF
	// UniqueBytecodesK and UniqueFunctionsK are thousands of distinct
	// instruction sites and methods the workload executes (BUB, BUF).
	UniqueBytecodesK float64
	UniqueFunctionsK float64
	// Focus is the hot-code dominance (BEF, 1..30): the share of dynamic
	// execution owned by the hottest 1% of methods, times 30.
	Focus float64
	// ExecTimeUS is the uninstrumented execution time used to normalize
	// counts into rates, as the paper does.
	ExecTimeUS float64
}

// Method is one synthetic function body.
type Method struct {
	ID   int
	Body []Opcode
}

// Program is a synthesized workload image: methods plus a hotness
// distribution over them.
type Program struct {
	Methods  []Method
	hotCut   int     // methods [0, hotCut) are the hot set
	hotShare float64 // probability mass of the hot set
	targets  Targets
}

// trackedShare is the fraction of dynamic instructions belonging to the four
// tracked opcodes in a typical method body; the rest is the filler mix.
const trackedShare = 0.35

// Synthesize expands targets into a program. The shape is derived, not
// free: method count from BUF, sites per method from BUB/BUF, opcode mix
// from the four tracked rates, hotness split from Focus.
func Synthesize(t Targets, seed uint64) (*Program, error) {
	if t.ExecTimeUS <= 0 {
		return nil, fmt.Errorf("bytecode: non-positive execution time %v", t.ExecTimeUS)
	}
	rng := sim.NewRNG(seed ^ 0xB17EC0DE)

	methods := int(t.UniqueFunctionsK * 1000)
	if methods < 1 {
		methods = 1
	}
	if methods > 40000 {
		methods = 40000 // cap the image; density below compensates
	}
	sites := int(t.UniqueBytecodesK * 1000)
	if sites < methods*2 {
		sites = methods * 2
	}
	bodyLen := sites / methods
	if bodyLen < 2 {
		bodyLen = 2
	}
	if bodyLen > 400 {
		bodyLen = 400
	}

	// Opcode mix: tracked opcodes in proportion to their target rates,
	// occupying trackedShare of each body; filler spread over the rest.
	totalRate := t.AALoadPerUS + t.AAStorePerUS + t.GetFieldPerUS + t.PutFieldPerUS
	mix := make([]float64, numOpcodes)
	if totalRate > 0 {
		mix[OpAALoad] = trackedShare * t.AALoadPerUS / totalRate
		mix[OpAAStore] = trackedShare * t.AAStorePerUS / totalRate
		mix[OpGetField] = trackedShare * t.GetFieldPerUS / totalRate
		mix[OpPutField] = trackedShare * t.PutFieldPerUS / totalRate
	}
	used := mix[OpAALoad] + mix[OpAAStore] + mix[OpGetField] + mix[OpPutField]
	filler := (1 - used) / float64(numOpcodes-4)
	for op := OpILoad; op < numOpcodes; op++ {
		mix[op] = filler
	}

	p := &Program{targets: t}
	for m := 0; m < methods; m++ {
		body := make([]Opcode, bodyLen)
		for i := range body {
			body[i] = sampleOpcode(mix, rng)
		}
		p.Methods = append(p.Methods, Method{ID: m, Body: body})
	}

	// Hotness: the hottest 1% of methods own Focus/30 of the execution.
	p.hotCut = methods / 100
	if p.hotCut < 1 {
		p.hotCut = 1
	}
	p.hotShare = t.Focus / 30
	if p.hotShare > 0.97 {
		p.hotShare = 0.97
	}
	if p.hotShare < 0.01 {
		p.hotShare = 0.01
	}
	return p, nil
}

func sampleOpcode(mix []float64, rng *sim.RNG) Opcode {
	u := rng.Float64()
	var acc float64
	for op, f := range mix {
		acc += f
		if u < acc {
			return Opcode(op)
		}
	}
	return OpReturn
}

// Counts is what the instrumented execution observed.
type Counts struct {
	Executed      int64 // dynamic instruction count
	PerOp         [numOpcodes]int64
	UniqueSites   int
	UniqueMethods int
	HotExecuted   int64 // dynamic instructions from the hot set
}

// Execute runs the program for the given number of method invocations under
// instrumentation and returns the counts.
func (p *Program) Execute(invocations int, seed uint64) Counts {
	rng := sim.NewRNG(seed ^ 0xE8EC)
	var c Counts
	seenMethod := make([]bool, len(p.Methods))
	seenSiteCount := make([]int, len(p.Methods)) // full-body execution marks all sites
	for i := 0; i < invocations; i++ {
		var m int
		if rng.Float64() < p.hotShare {
			m = rng.Intn(p.hotCut)
		} else if len(p.Methods) > p.hotCut {
			m = p.hotCut + rng.Intn(len(p.Methods)-p.hotCut)
		}
		method := &p.Methods[m]
		if !seenMethod[m] {
			seenMethod[m] = true
			c.UniqueMethods++
		}
		if seenSiteCount[m] == 0 {
			seenSiteCount[m] = len(method.Body)
			c.UniqueSites += len(method.Body)
		}
		for _, op := range method.Body {
			c.PerOp[op]++
		}
		c.Executed += int64(len(method.Body))
		if m < p.hotCut {
			c.HotExecuted += int64(len(method.Body))
		}
	}
	return c
}

// Report is the B-group nominal statistics derived from an instrumented
// execution, in the paper's units.
type Report struct {
	BAL float64 // aaload per usec
	BAS float64 // aastore per usec
	BGF float64 // getfield per usec
	BPF float64 // putfield per usec
	BUB float64 // thousands of unique bytecodes executed
	BUF float64 // thousands of unique function calls executed
	BEF float64 // execution focus / dominance of hot code
}

// Report normalizes counts into the published statistics. Rates divide
// dynamic counts by the *uninstrumented* execution time, exactly as the
// paper combines instrumented counts with separate timing runs; because the
// instrumented execution samples a fixed invocation budget rather than the
// full run, tracked-opcode counts are rescaled to the workload's total
// dynamic volume first.
func (c Counts) Report(t Targets) Report {
	r := Report{
		BUB: float64(c.UniqueSites) / 1000,
		BUF: float64(c.UniqueMethods) / 1000,
	}
	if c.Executed > 0 {
		r.BEF = 30 * float64(c.HotExecuted) / float64(c.Executed)
	}
	if c.Executed == 0 || t.ExecTimeUS <= 0 {
		return r
	}
	// Scale sampled counts up to the run's total tracked-opcode volume.
	totalRate := t.AALoadPerUS + t.AAStorePerUS + t.GetFieldPerUS + t.PutFieldPerUS
	sampledTracked := c.PerOp[OpAALoad] + c.PerOp[OpAAStore] +
		c.PerOp[OpGetField] + c.PerOp[OpPutField]
	if sampledTracked == 0 || totalRate == 0 {
		return r
	}
	scale := totalRate * t.ExecTimeUS / float64(sampledTracked)
	r.BAL = float64(c.PerOp[OpAALoad]) * scale / t.ExecTimeUS
	r.BAS = float64(c.PerOp[OpAAStore]) * scale / t.ExecTimeUS
	r.BGF = float64(c.PerOp[OpGetField]) * scale / t.ExecTimeUS
	r.BPF = float64(c.PerOp[OpPutField]) * scale / t.ExecTimeUS
	return r
}

// Measure is the one-call pipeline: synthesize, execute enough invocations
// to converge the unique-site census, and report.
func Measure(t Targets, seed uint64) (Report, error) {
	p, err := Synthesize(t, seed)
	if err != nil {
		return Report{}, err
	}
	invocations := 30 * len(p.Methods)
	if invocations < 50_000 {
		invocations = 50_000
	}
	if invocations > 2_000_000 {
		invocations = 2_000_000
	}
	c := p.Execute(invocations, seed)
	return c.Report(t), nil
}

// expectedBEF is exposed for tests: the BEF value Execute should converge to.
func (p *Program) expectedBEF() float64 { return 30 * p.hotShare }
