package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Layers are the repository's modules from the bottom of the stack up, the
// names the per-layer metrics carry. bench is the benchmark's own code
// (output checks, digests); goruntime is everything with no frame of this
// repository at all: the Go scheduler, garbage collector and syscalls.
var layers = []string{
	"sim", "gc", "workload", "exper", "harness", "analysis", "fleet", "obs",
	"bench", "goruntime",
}

// pkgLayer maps each package under chopin/internal to its layer. A package
// missing here is a benchmark bug (TestEveryPackageHasALayer catches it).
var pkgLayer = map[string]string{
	"sim":           "sim",
	"gc":            "gc",
	"heap":          "gc",
	"gclog":         "gc",
	"workload":      "workload",
	"jit":           "workload",
	"cpuarch":       "workload",
	"trace":         "workload",
	"bytecode":      "workload",
	"exper":         "exper",
	"persist":       "exper",
	"harness":       "harness",
	"stats":         "analysis",
	"latency":       "analysis",
	"lbo":           "analysis",
	"nominal":       "analysis",
	"pca":           "analysis",
	"report":        "analysis",
	"figures":       "analysis",
	"fleet":         "fleet",
	"obs":           "obs",
	"obs/span":      "obs",
	"obs/traceview": "obs",
	"obs/sample":    "obs",
	"obs/benchdiff": "obs",
}

const internalPrefix = "chopin/internal/"

// funcPackage returns the import path of a symbol name as the Go runtime
// writes it in profiles ("chopin/internal/obs/span.BuildFleet",
// "chopin/internal/exper.(*Engine).execute.func1"). Type arguments of
// generic instances are cut first: they name other packages.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// frameLayer classifies one stack frame: its layer when it belongs to a
// chopin/internal package, "bench" for the benchmark's main package, "" for
// anything else.
func frameLayer(fn string) (string, error) {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, internalPrefix); ok {
		if l, ok := pkgLayer[rest]; ok {
			return l, nil
		}
		return "", fmt.Errorf("package %s has no layer", pkg)
	}
	if pkg == "main" {
		return "bench", nil
	}
	return "", nil
}

// cpuProfile is the part of a pprof CPU profile the ledger needs: each
// sample's stack as function names, innermost first, and its CPU time.
type cpuProfile struct {
	stacks  [][]string
	cpuNS   []int64
	totalNS int64
}

// attribute splits the profile's CPU time across layers: a sample belongs to
// the innermost frame of a chopin/internal package, so standard-library code
// counts toward the layer that called it (encoding/json under persist is
// exper). Samples with no such frame go to bench when the benchmark's own
// code is on the stack and to goruntime otherwise. The shares sum to the
// profile's total exactly.
func (p *cpuProfile) attribute() (map[string]int64, error) {
	out := map[string]int64{}
	for i, stack := range p.stacks {
		layer := "goruntime"
		for _, fn := range stack {
			l, err := frameLayer(fn)
			if err != nil {
				return nil, err
			}
			if l == "bench" {
				layer = l
				continue // an inner chopin/internal frame still wins
			}
			if l != "" {
				layer = l
				break
			}
		}
		out[layer] += p.cpuNS[i]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped pprof profile with the standard library
// only: a minimal protocol-buffer reader over the fields of profile.proto
// that hold samples, locations, functions and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := pbFields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return pbRepeated(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbFields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	col := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.cpuNS = append(p.cpuNS, s.values[col])
		p.totalNS += s.values[col]
	}
	return p, nil
}

// pbFields walks one protocol-buffer message, calling fn with each field's
// number and either its varint value (wire types 0, 1 and 5 as integers) or
// its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated yields a repeated varint field, packed (data) or not (v).
func pbRepeated(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// printLedger writes the per-layer CPU table, largest first, naming the top
// layer.
func printLedger(w io.Writer, workload string, perRep map[string]float64, total float64) {
	names := append([]string(nil), layers...)
	sort.SliceStable(names, func(a, b int) bool { return perRep[names[a]] > perRep[names[b]] })
	fmt.Fprintf(w, "ledger %s: CPU per traced rep by layer (profile total %.3fs)\n", workload, total)
	for _, l := range names {
		share := 0.0
		if total > 0 {
			share = 100 * perRep[l] / total
		}
		fmt.Fprintf(w, "  %-10s %8.3fs %5.1f%%\n", l, perRep[l], share)
	}
	fmt.Fprintf(w, "ledger %s: top layer %s\n", workload, names[0])
}
