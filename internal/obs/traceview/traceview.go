// Package traceview renders span trees (internal/obs/span) for humans: as
// Chrome trace-event JSON loadable in Perfetto / chrome://tracing, or as a
// plain-text timeline for terminals.
//
// # Chrome trace-event mapping
//
// Each run becomes one process (pid 1, 2, … in tree order) named by its
// run key, benchmark and collector; each track becomes one named thread
// within it (gc=1, stw=2, mutator=3, sched=4). Spans emit complete ("X")
// events with microsecond timestamps, marks emit instant ("i") events, and
// the sampled series emits two counter ("C") tracks — heap occupancy /
// live estimate in MB, and the mutator/GC/stall utilization split.
//
// The JSON is hand-assembled rather than reflect-marshalled so field order
// is stable ({"name",…,"ph","ts","dur","pid","tid","args"}) — byte-level
// reproducibility is what lets a golden file lock the format.
package traceview

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"chopin/internal/obs"
	"chopin/internal/obs/span"
)

// trackTIDs fixes the thread ID and ordering of each track within a
// process. Counters use tid 0 so they render above the span rows.
var trackTIDs = map[string]int{
	span.TrackGC:      1,
	span.TrackSTW:     2,
	span.TrackMutator: 3,
	span.TrackSched:   4,
}

// trackOrder is the rendering order of tracks (timeline and thread
// metadata alike).
var trackOrder = []string{span.TrackGC, span.TrackSTW, span.TrackMutator, span.TrackSched}

// WriteChromeTrace writes the trees as one Chrome trace-event JSON object.
// The output loads directly in Perfetto (ui.perfetto.dev) and
// chrome://tracing.
func WriteChromeTrace(w io.Writer, trees []*span.Tree) error {
	c := newChrome(w)
	for pi, tr := range trees {
		pid := pi + 1
		c.process(pid, runLabel(tr.Run, "run", tr.Benchmark, tr.Collector))
		c.tree(pid, tr, true)
	}
	return c.close()
}

// runLabel names a run's process: its run key (or dflt) and, when known,
// its benchmark and collector.
func runLabel(run, dflt, benchmark, collector string) string {
	if run == "" {
		run = dflt
	}
	if benchmark != "" || collector != "" {
		run += " (" + benchmark + "/" + collector + ")"
	}
	return run
}

// chrome writes one trace-event JSON object. Each record is appended to
// one buffer, which goes to w in chunks; the first write error sticks.
type chrome struct {
	w   io.Writer
	b   []byte
	sep string // before the next record
	err error
}

// chromeChunk is the buffered size at which records are written out.
const chromeChunk = 64 << 10

func newChrome(w io.Writer) *chrome {
	b := make([]byte, 0, chromeChunk+4<<10)
	return &chrome{w: w, b: append(b, `{"traceEvents":[`...), sep: "\n"}
}

// record starts the next record and returns the buffer to append it to;
// done takes the buffer back.
func (c *chrome) record() []byte {
	b := append(c.b, c.sep...)
	c.sep = ",\n"
	return b
}

func (c *chrome) done(b []byte) {
	c.b = b
	if len(b) >= chromeChunk {
		c.flush()
	}
}

func (c *chrome) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.b)
	}
	c.b = c.b[:0]
}

// close ends the JSON object, writes what is buffered and returns the
// first write error.
func (c *chrome) close() error {
	c.b = append(c.b, "\n],\"displayTimeUnit\":\"ms\"}\n"...)
	c.flush()
	return c.err
}

// meta writes a process_name or thread_name metadata record.
func (c *chrome) meta(name string, pid, tid int, label string) {
	b := str(c.record(), `{"name":`, name)
	b = integer(b, `,"ph":"M","pid":`, int64(pid))
	b = integer(b, `,"tid":`, int64(tid))
	b = str(b, `,"args":{"name":`, label)
	c.done(append(b, "}}"...))
}

// process names process pid and its span tracks.
func (c *chrome) process(pid int, label string) {
	c.meta("process_name", pid, 0, label)
	for _, track := range trackOrder {
		c.meta("thread_name", pid, trackTIDs[track], track)
	}
}

// tree writes a span tree's spans, marks and heap counters into process
// pid. detail adds each span's GC CPU and value and the CPU-split counter
// track.
func (c *chrome) tree(pid int, tr *span.Tree, detail bool) {
	for _, s := range tr.Spans {
		b := str(c.record(), `{"name":`, s.Name)
		b = str(b, `,"cat":`, s.Track)
		b = usec(b, `,"ph":"X","ts":`, s.Start)
		b = usec(b, `,"dur":`, s.DurNS())
		b = integer(b, `,"pid":`, int64(pid))
		b = integer(b, `,"tid":`, int64(trackTIDs[s.Track]))
		b = integer(b, `,"args":{"span_id":`, s.ID)
		b = integer(b, `,"parent":`, s.Parent)
		b = integer(b, `,"cycle":`, s.Cycle)
		if s.Cause != 0 {
			b = integer(b, `,"cause":`, s.Cause)
		}
		if detail && s.CPUNS != 0 {
			b = num(b, `,"gc_cpu_ms":`, s.CPUNS/1e6)
		}
		if detail && s.Value != 0 {
			b = num(b, `,"value":`, s.Value)
		}
		if s.Open {
			b = append(b, `,"truncated":true`...)
		}
		c.done(append(b, "}}"...))
	}
	for _, m := range tr.Marks {
		b := str(c.record(), `{"name":`, m.Name)
		b = usec(b, `,"cat":"mark","ph":"i","ts":`, m.TNS)
		b = integer(b, `,"pid":`, int64(pid))
		b = integer(b, `,"tid":`, int64(trackTIDs[span.TrackGC]))
		b = integer(b, `,"s":"p","args":{"cause":`, m.Cause)
		c.done(append(b, "}}"...))
	}
	for _, smp := range tr.Samples {
		b := usec(c.record(), `{"name":"heap","ph":"C","ts":`, smp.TNS)
		b = integer(b, `,"pid":`, int64(pid))
		b = num(b, `,"tid":0,"args":{"used_mb":`, smp.HeapUsed/(1<<20))
		b = num(b, `,"live_mb":`, smp.LiveEst/(1<<20))
		c.done(append(b, "}}"...))
		if !detail {
			continue
		}
		b = usec(c.record(), `{"name":"cpu","ph":"C","ts":`, smp.TNS)
		b = integer(b, `,"pid":`, int64(pid))
		b = num(b, `,"tid":0,"args":{"mutator":`, smp.MutFrac)
		b = num(b, `,"gc":`, smp.GCFrac)
		b = num(b, `,"stall":`, smp.StallFrac)
		c.done(append(b, "}}"...))
	}
}

// The append helpers below write key, which carries the JSON punctuation
// before the value, then the value.

// num appends a float as the shortest JSON number that round-trips.
func num(b []byte, key string, v float64) []byte {
	return strconv.AppendFloat(append(b, key...), v, 'g', -1, 64)
}

// usec appends virtual nanoseconds as the microsecond number the
// trace-event spec expects.
func usec(b []byte, key string, ns int64) []byte { return scaled(append(b, key...), ns, 3) }

// msec appends nanoseconds as milliseconds.
func msec(b []byte, key string, ns int64) []byte { return scaled(append(b, key...), ns, 6) }

// pow10 holds the divisors scaled takes.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// scaled appends n/10^k, 0 ≤ k ≤ 6, exactly as num appends
// float64(n)/10^k. For |n| < 2^40 that float is the correctly rounded
// n/10^k, a decimal of at most 13 significant digits, and any decimal of at
// most 15 is the shortest that rounds to its float, so n's digits are the
// shortest form: scaled only places them as AppendFloat's 'g' does (%e
// below 1e-4 and from 1e6, else %f). Larger n and values below 1e-4 go
// through strconv.
func scaled(b []byte, n int64, k int) []byte {
	const maxExact = 1 << 40
	if n == 0 {
		return append(b, '0')
	}
	if n <= -maxExact || n >= maxExact {
		return strconv.AppendFloat(b, float64(n)/pow10[k], 'g', -1, 64)
	}
	var buf [13]byte
	i := len(buf)
	for u := n; u != 0; u /= 10 {
		i--
		if u < 0 {
			buf[i] = byte('0' - u%10)
		} else {
			buf[i] = byte('0' + u%10)
		}
	}
	d := buf[i:]
	dp := len(d) - k // n/10^k = 0.d × 10^dp
	for d[len(d)-1] == '0' {
		d = d[:len(d)-1]
	}
	exp := dp - 1
	if exp < -4 {
		return strconv.AppendFloat(b, float64(n)/pow10[k], 'g', -1, 64)
	}
	if n < 0 {
		b = append(b, '-')
	}
	if exp >= 6 { // %e: d.ddde+XX
		b = append(b, d[0])
		if len(d) > 1 {
			b = append(append(b, '.'), d[1:]...)
		}
		b = append(b, 'e', '+')
		if exp < 10 {
			b = append(b, '0')
		}
		return strconv.AppendInt(b, int64(exp), 10)
	}
	// %f: the integer part (0 when dp ≤ 0), then any fraction digits.
	if dp <= 0 {
		b = append(b, '0')
	} else {
		m := min(dp, len(d))
		b = append(b, d[:m]...)
		for ; m < dp; m++ {
			b = append(b, '0')
		}
	}
	if dp < len(d) {
		b = append(b, '.')
		for j := dp; j < len(d); j++ {
			if j < 0 {
				b = append(b, '0')
			} else {
				b = append(b, d[j])
			}
		}
	}
	return b
}

func integer(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func str(b []byte, key, s string) []byte { return obs.AppendJSONString(append(b, key...), s) }

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

// WriteTimeline renders each tree as a fixed-width text timeline: one bar
// per track where a cell is filled when any span covers it, with per-track
// totals alongside and marks flagged beneath. Width is the bar width in
// cells (minimum 10; 0 selects 72).
func WriteTimeline(w io.Writer, trees []*span.Tree, width int) error {
	if width <= 0 {
		width = 72
	}
	if width < 10 {
		width = 10
	}
	bw := &errWriter{w: w}
	for ti, tr := range trees {
		if ti > 0 {
			bw.str("\n")
		}
		head := tr.Run
		if head == "" {
			head = "(run)"
		}
		if tr.Benchmark != "" || tr.Collector != "" {
			head += fmt.Sprintf("  %s/%s", tr.Benchmark, tr.Collector)
		}
		bw.str(fmt.Sprintf("%s  [0 .. %s]\n", head, fmtNS(tr.EndNS)))
		if tr.EndNS <= 0 {
			continue
		}
		scale := float64(width) / float64(tr.EndNS)
		for _, track := range trackOrder {
			cells := make([]byte, width)
			for i := range cells {
				cells[i] = '.'
			}
			var total float64
			count := 0
			for _, s := range tr.Spans {
				if s.Track != track {
					continue
				}
				count++
				total += float64(s.DurNS())
				lo := int(float64(s.Start) * scale)
				hi := int(float64(s.End) * scale)
				if hi >= width {
					hi = width - 1
				}
				// A span always occupies at least its starting cell, so
				// short pauses stay visible.
				for i := lo; i <= hi; i++ {
					cells[i] = '#'
				}
			}
			bw.str(fmt.Sprintf("  %-7s |%s| %4d span(s) %10s %5.1f%%\n",
				track, cells, count, fmtNS(int64(total)),
				100*total/float64(tr.EndNS)))
		}
		// A degenerating run can carry thousands of marks; print the first
		// few and summarize the rest rather than flooding the terminal.
		const maxMarks = 8
		for i, m := range tr.Marks {
			if i == maxMarks {
				bw.str(fmt.Sprintf("  %-7s … and %d more mark(s)\n", "!", len(tr.Marks)-maxMarks))
				break
			}
			pos := int(float64(m.TNS) * scale)
			if pos >= width {
				pos = width - 1
			}
			bw.str(fmt.Sprintf("  %-7s |%s^ %s at %s\n",
				"!", strings.Repeat(" ", pos), m.Name, fmtNS(m.TNS)))
		}
		if n := len(tr.Samples); n > 0 {
			bw.str(fmt.Sprintf("  %d samples\n", n))
		}
	}
	return bw.err
}

// fmtNS renders nanoseconds with a readable unit.
func fmtNS(ns int64) string {
	switch v := float64(ns); {
	case v >= 1e9:
		return fmt.Sprintf("%.3gs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gus", v/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
