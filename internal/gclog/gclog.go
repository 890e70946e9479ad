// Package gclog renders a run's GC telemetry in OpenJDK unified-logging
// style and parses such logs back into telemetry.
//
// The paper's analysis leans on GC logs ("We also confirm this by reviewing
// Shenandoah's GC log", Section 6.3), and downstream users of a suite like
// this expect -Xlog:gc-shaped output they can feed to existing tooling. The
// emitted format follows the JDK's shape:
//
//	[12.345s][info][gc] GC(7) Pause Young (Normal) 31M->12M(128M) 1.234ms cpu=9.876ms
//	[13.456s][info][gc] GC(8) Concurrent Cycle 45M->20M(128M) 210.000ms cpu=801.000ms
//
// and Parse reconstructs the trace events from it, round-tripping the fields
// the methodologies consume.
package gclog

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"chopin/internal/trace"
)

// labels maps event kinds to their JDK-style descriptions.
var labels = map[trace.GCKind]string{
	trace.GCYoung:      "Pause Young (Normal)",
	trace.GCFull:       "Pause Full (Allocation Failure)",
	trace.GCConcurrent: "Concurrent Cycle",
	trace.GCDegenerate: "Pause Degenerated GC (Allocation Failure)",
	trace.GCMixed:      "Concurrent Mark Cycle + Mixed Evacuation",
}

// kinds is the inverse of labels.
var kinds = func() map[string]trace.GCKind {
	m := make(map[string]trace.GCKind, len(labels))
	for k, l := range labels {
		m[l] = k
	}
	return m
}()

const mb = float64(1 << 20)

// Format renders the log's events as unified-logging lines. capacityMB is
// the heap capacity shown in parentheses, as -Xlog:gc prints it.
func Format(l *trace.Log, capacityMB float64) string {
	var b strings.Builder
	for i, e := range l.Events {
		before := (e.UsedAfter + e.Reclaimed) / mb
		after := e.UsedAfter / mb
		fmt.Fprintf(&b, "[%.3fs][info][gc] GC(%d) %s %.0fM->%.0fM(%.0fM) %.3fms cpu=%.3fms\n",
			float64(e.End)/1e9, i, labels[e.Kind], before, after, capacityMB,
			e.PauseNS/1e6, e.CPUNS/1e6)
	}
	// A total that rounds to 0.000ms is left out: it would parse back as no
	// stall at all.
	if stall := strconv.FormatFloat(l.StallNS/1e6, 'f', 3, 64); l.StallNS > 0 && stall != "0.000" {
		fmt.Fprintf(&b, "[%.3fs][info][gc] Allocation stall total %sms\n",
			lastEventSec(l), stall)
	}
	return b.String()
}

func lastEventSec(l *trace.Log) float64 {
	if len(l.Events) == 0 {
		return 0
	}
	return float64(l.Events[len(l.Events)-1].End) / 1e9
}

// linePattern matches the event lines Format emits.
var linePattern = regexp.MustCompile(
	`^\[(\d+\.\d+)s\]\[info\]\[gc\] GC\(\d+\) (.+?) (\d+)M->(\d+)M\((\d+)M\) (\d+\.\d+)ms cpu=(\d+\.\d+)ms$`)

// stallPattern matches the trailing stall summary.
var stallPattern = regexp.MustCompile(
	`^\[\d+\.\d+s\]\[info\]\[gc\] Allocation stall total (\d+\.\d+)ms$`)

// maxField bounds every number ParseAll accepts, whether seconds,
// milliseconds or megabytes. It lies far beyond any real log, and below it
// nanosecond times fit an int64 and every value Format prints parses back to
// the same text.
const maxField = 1e9

// Result is what a tolerant parse recovers from unified-logging text.
type Result struct {
	Log        *trace.Log
	CapacityMB float64
	// Malformed counts lines that claimed to be GC output but could not be
	// decoded — truncated event lines, unknown labels, garbled fields,
	// numbers of maxField or more. They
	// are skipped, not fatal: a log cut off by a crash should still yield
	// every event before the tear.
	Malformed int
}

// looksLikeGC reports whether a line that failed the event and stall
// patterns nevertheless claims to carry GC telemetry — the signature a
// truncated or corrupted line retains. Interleaved lines from other
// unified-logging tags return false and are skipped silently.
func looksLikeGC(line string) bool {
	return (strings.Contains(line, "][gc]") && strings.Contains(line, "GC(")) ||
		strings.Contains(line, "Allocation stall")
}

// Parse reconstructs a trace.Log from unified-logging text. Unknown lines
// are skipped (real logs interleave other tags), and malformed GC lines are
// tolerated and counted rather than fatal; use ParseAll to see the count.
func Parse(text string) (*trace.Log, float64, error) {
	r, err := ParseAll(text)
	if err != nil {
		return nil, 0, err
	}
	return r.Log, r.CapacityMB, nil
}

// ParseAll is Parse with the malformed-line count exposed. The only error is
// a scanner failure (a line exceeding the 1MB buffer); everything else
// degrades to skipped lines so a truncated log still parses.
func ParseAll(text string) (Result, error) {
	res := Result{Log: &trace.Log{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1024*1024) // grows from 4 KB only for long lines
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if m := stallPattern.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil || v >= maxField {
				res.Malformed++
				continue
			}
			res.Log.StallNS = v * 1e6
			continue
		}
		m := linePattern.FindStringSubmatch(line)
		if m == nil {
			if looksLikeGC(line) {
				res.Malformed++
			}
			continue // interleaved non-GC line
		}
		kind, ok := kinds[m[2]]
		if !ok {
			res.Malformed++
			continue
		}
		endSec, err1 := strconv.ParseFloat(m[1], 64)
		beforeMB, err2 := strconv.ParseFloat(m[3], 64)
		afterMB, err3 := strconv.ParseFloat(m[4], 64)
		capMB, err4 := strconv.ParseFloat(m[5], 64)
		pauseMS, err5 := strconv.ParseFloat(m[6], 64)
		cpuMS, err6 := strconv.ParseFloat(m[7], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
			err5 != nil || err6 != nil || endSec >= maxField || beforeMB >= maxField ||
			afterMB >= maxField || capMB >= maxField || pauseMS >= maxField ||
			cpuMS >= maxField {
			res.Malformed++
			continue
		}
		res.CapacityMB = capMB
		end := int64(endSec * 1e9)
		ev := trace.GCEvent{
			Kind:      kind,
			Start:     end - int64(pauseMS*1e6),
			End:       end,
			PauseNS:   pauseMS * 1e6,
			CPUNS:     cpuMS * 1e6,
			Reclaimed: (beforeMB - afterMB) * mb,
			UsedAfter: afterMB * mb,
		}
		res.Log.AddEvent(ev)
		if ev.PauseNS > 0 {
			res.Log.AddPause(trace.Pause{Start: ev.Start, End: ev.End})
		}
	}
	if err := sc.Err(); err != nil {
		return Result{}, fmt.Errorf("gclog: %w", err)
	}
	return res, nil
}

// Summarize produces the human top-line a GC log reader looks for first.
func Summarize(l *trace.Log) string {
	return fmt.Sprintf(
		"%d collections (%d young, %d full, %d concurrent, %d mixed, %d degenerate), "+
			"%.1fms total pause (max %.2fms), %.1fms GC cpu, %.1fms allocation stalls",
		len(l.Events),
		l.Count(trace.GCYoung), l.Count(trace.GCFull), l.Count(trace.GCConcurrent),
		l.Count(trace.GCMixed), l.Count(trace.GCDegenerate),
		l.TotalPauseNS()/1e6, l.MaxPauseNS()/1e6, l.TotalGCCPUNS()/1e6, l.StallNS/1e6)
}
