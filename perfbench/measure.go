package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// usage is one reading of the process's resource counters.
type usage struct {
	wall      time.Time
	cpu       time.Duration // user + system time of the whole process
	maxRSSKB  int64
	allocated uint64 // runtime.MemStats.TotalAlloc
	gcCycles  uint32
}

// readUsage takes the process's task clock and peak resident set from
// getrusage. withMem adds runtime.MemStats, which stops the world briefly,
// so timed sections read it only at their edges.
func readUsage(withMem bool) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.allocated = ms.TotalAlloc
		u.gcCycles = ms.NumGC
	}
	return u
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// calRecord is one record of the calibration kernel's data set.
type calRecord struct {
	ID   int
	Name string
	Vals []float64
}

// calibrate runs a fixed kernel that no code of the program touches — JSON
// encoding and decoding, sorting and map updates over a generated data set,
// the same kinds of work the workloads do — on workers goroutines at once,
// and returns its host seconds. Timed next to each rep, it tracks how fast
// the host runs the benchmark at that moment.
func calibrate(workers int) float64 {
	runtime.GC()
	start := time.Now()
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			recs := make([]calRecord, 10000)
			x := uint64(0x9e3779b97f4a7c15)
			for i := range recs {
				vals := make([]float64, 8)
				for j := range vals {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					vals[j] = float64(x>>11) / (1 << 53)
				}
				recs[i] = calRecord{ID: i, Name: strconv.FormatUint(x, 36), Vals: vals}
			}
			sum := 0
			for round := 0; round < 2; round++ {
				data, _ := json.Marshal(recs) // plain data: cannot fail
				var back []calRecord
				_ = json.Unmarshal(data, &back)
				sort.Slice(back, func(a, b int) bool { return back[a].Vals[round] < back[b].Vals[round] })
				index := make(map[string]int, len(back))
				for i, r := range back {
					index[r.Name] = i
				}
				sum += index[recs[round].Name] + len(data)
			}
			done <- sum
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	return time.Since(start).Seconds()
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// digest is the canonical SHA-256 of values: every exported field, element
// and map entry in a fixed order, floats in their shortest exact form (NaN
// and ±Inf included, which encoding/json rejects). Two outputs have the same
// digest exactly when they hold the same values.
func digest(values ...any) string {
	h := sha256.New()
	for _, v := range values {
		canon(h, reflect.ValueOf(v))
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func canon(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		io.WriteString(h, "nil")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(h, "nil")
			return
		}
		canon(h, v.Elem())
	case reflect.Struct:
		io.WriteString(h, "{")
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			io.WriteString(h, t.Field(i).Name+":")
			canon(h, v.Field(i))
			io.WriteString(h, ",")
		}
		io.WriteString(h, "}")
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			fmt.Fprintf(h, "%x", v.Bytes())
			return
		}
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			canon(h, v.Index(i))
			io.WriteString(h, ",")
		}
		io.WriteString(h, "]")
	case reflect.Map:
		type entry struct {
			key string
			val reflect.Value
		}
		var es []entry
		for it := v.MapRange(); it.Next(); {
			kh := sha256.New()
			canon(kh, it.Key())
			es = append(es, entry{hex.EncodeToString(kh.Sum(nil)), it.Value()})
		}
		sort.Slice(es, func(a, b int) bool { return es[a].key < es[b].key })
		io.WriteString(h, "map[")
		for _, e := range es {
			io.WriteString(h, e.key+":")
			canon(h, e.val)
			io.WriteString(h, ",")
		}
		io.WriteString(h, "]")
	case reflect.Float32, reflect.Float64:
		io.WriteString(h, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		io.WriteString(h, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		io.WriteString(h, strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		io.WriteString(h, strconv.FormatBool(v.Bool()))
	case reflect.String:
		io.WriteString(h, strconv.Quote(v.String()))
	default:
		// Channels and functions carry no output value.
		io.WriteString(h, v.Kind().String())
	}
}
