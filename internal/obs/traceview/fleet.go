package traceview

import (
	"fmt"
	"io"
	"strconv"

	"chopin/internal/obs/span"
)

// Fleet renderers: one track per replica — STW bars, load, traced requests —
// as Chrome trace-event JSON for Perfetto, and as a terminal timeline. The
// JSON is assembled with the same append helpers as WriteChromeTrace, so
// field order is stable and a golden file can lock the format byte-for-byte.

// Fleet-layer thread IDs, appended after the per-replica span tracks
// (gc=1 … sched=4).
const (
	tidRequests = 5
	tidRoutes   = 6
)

// WriteFleetChrome writes assembled fleet traces as one Chrome trace-event
// JSON object: each replica is a process carrying its own GC/STW/mutator
// tracks, a "requests" track with the logical requests it served (blame
// decomposition in args), a "routes" track of balancer decisions, and
// counter tracks for in-flight, goodput and SLO burn rate from the metric
// windows.
func WriteFleetChrome(w io.Writer, fts []*span.FleetTrace) error {
	c := newChrome(w)
	pid := 0
	for _, ft := range fts {
		base := pid
		pids := map[int]int{} // replica index -> pid
		label := runLabel(ft.Run, "fleet", ft.Benchmark, ft.Collector) + " replica "
		for _, rt := range ft.Replicas {
			pid++
			pids[rt.Index] = pid
			c.process(pid, label+strconv.Itoa(rt.Index))
			c.meta("thread_name", pid, tidRequests, "requests")
			c.meta("thread_name", pid, tidRoutes, "routes")
			c.tree(pid, rt.Tree, false)
			for _, win := range rt.Windows {
				b := usec(c.record(), `{"name":"load","ph":"C","ts":`, win.EndNS)
				b = integer(b, `,"pid":`, int64(pid))
				b = integer(b, `,"tid":0,"args":{"in_flight":`, win.InFlight)
				b = num(b, `,"goodput":`, win.Goodput)
				b = num(b, `,"burn":`, win.BurnRate)
				c.done(append(b, "}}"...))
			}
		}

		// Requests and routes render in the process of the replica that
		// served (or received) them.
		pidOf := func(replica int) int64 {
			if p, ok := pids[replica]; ok {
				return int64(p)
			}
			return int64(base + 1)
		}
		for _, q := range ft.Requests {
			b := integer(c.record(), `{"name":"req `, q.ID)
			b = usec(b, `","cat":"request","ph":"X","ts":`, q.Start)
			b = usec(b, `,"dur":`, q.E2ENS)
			b = integer(b, `,"pid":`, pidOf(q.Replica))
			b = integer(b, `,"tid":`, tidRequests)
			b = integer(b, `,"args":{"id":`, q.ID)
			b = integer(b, `,"attempts":`, int64(q.Attempts))
			b = msec(b, `,"queue_ms":`, q.QueueNS)
			b = msec(b, `,"gc_ms":`, q.GCNS)
			b = msec(b, `,"service_ms":`, q.ServNS)
			b = msec(b, `,"retry_ms":`, q.RetryNS)
			b = integer(b, `,"gc_pauses":`, q.GCPauses)
			c.done(append(b, "}}"...))
		}
		for _, r := range ft.Routes {
			b := str(c.record(), `{"name":`, r.Reason)
			b = usec(b, `,"cat":"route","ph":"i","ts":`, r.TNS)
			b = integer(b, `,"pid":`, pidOf(r.Replica))
			b = integer(b, `,"tid":`, tidRoutes)
			b = integer(b, `,"s":"t","args":{"id":`, r.ID)
			b = integer(b, `,"attempt":`, int64(r.Attempt))
			b = integer(b, `,"avoided":`, int64(r.Avoided))
			c.done(append(b, "}}"...))
		}
		for _, r := range ft.Retries {
			b := usec(c.record(), `{"name":"retry","cat":"retry","ph":"i","ts":`, r.TNS)
			b = integer(b, `,"pid":`, pidOf(r.Replica))
			b = integer(b, `,"tid":`, tidRoutes)
			b = integer(b, `,"s":"t","args":{"id":`, r.ID)
			b = integer(b, `,"depth":`, int64(r.Depth))
			b = num(b, `,"lat_ms":`, r.LatNS/1e6)
			c.done(append(b, "}}"...))
		}
	}
	return c.close()
}

// loadGlyphs maps an in-flight depth (relative to the run's peak) to a bar
// character; '.' is idle, '@' the peak.
var loadGlyphs = []byte(" .:-=+*#@")

// WriteFleetTimeline renders each fleet trace as a fixed-width terminal
// timeline: per replica, an STW bar (cells any pause touches), a load bar
// (in-flight depth per window, scaled to the fleet's peak), and a request
// bar (cells where traced requests were in flight on that replica); then the
// retry bursts beneath.
func WriteFleetTimeline(w io.Writer, fts []*span.FleetTrace, width int) error {
	if width <= 0 {
		width = 72
	}
	if width < 10 {
		width = 10
	}
	bw := &errWriter{w: w}
	for fi, ft := range fts {
		if fi > 0 {
			bw.str("\n")
		}
		head := ft.Run
		if head == "" {
			head = "(fleet)"
		}
		if ft.Benchmark != "" || ft.Collector != "" {
			head += fmt.Sprintf("  %s/%s", ft.Benchmark, ft.Collector)
		}
		bw.str(fmt.Sprintf("%s  %d replica(s), %d request(s), %d retry(ies)  [0 .. %s]\n",
			head, len(ft.Replicas), len(ft.Requests), len(ft.Retries), fmtNS(ft.EndNS)))
		if ft.EndNS <= 0 {
			continue
		}
		scale := float64(width) / float64(ft.EndNS)

		// The load bars share one scale: the fleet-wide peak in-flight depth.
		var peak int64 = 1
		for _, rt := range ft.Replicas {
			for _, win := range rt.Windows {
				if win.InFlight > peak {
					peak = win.InFlight
				}
			}
		}

		for _, rt := range ft.Replicas {
			stw := make([]byte, width)
			load := make([]byte, width)
			reqs := make([]byte, width)
			for i := 0; i < width; i++ {
				stw[i], load[i], reqs[i] = '.', ' ', '.'
			}
			var pauseNS int64
			var pauses int
			for _, s := range rt.Tree.Spans {
				if s.Track != span.TrackSTW {
					continue
				}
				pauses++
				pauseNS += s.DurNS()
				lo, hi := cellRange(s.Start, s.End, scale, width)
				for i := lo; i <= hi; i++ {
					stw[i] = '#'
				}
			}
			for _, win := range rt.Windows {
				lo, hi := cellRange(win.EndNS-win.DurNS, win.EndNS, scale, width)
				lvl := int(win.InFlight * int64(len(loadGlyphs)-1) / peak)
				g := loadGlyphs[lvl]
				for i := lo; i <= hi; i++ {
					if g > load[i] {
						load[i] = g
					}
				}
			}
			var served int
			for _, q := range ft.Requests {
				if q.Replica != rt.Index {
					continue
				}
				served++
				lo, hi := cellRange(q.Start, q.End, scale, width)
				for i := lo; i <= hi; i++ {
					reqs[i] = '#'
				}
			}
			bw.str(fmt.Sprintf("  r%-2d stw  |%s| %4d pause(s) %10s %5.1f%%\n",
				rt.Index, stw, pauses, fmtNS(pauseNS),
				100*float64(pauseNS)/float64(ft.EndNS)))
			bw.str(fmt.Sprintf("      load |%s| peak %d in flight\n", load, peak))
			bw.str(fmt.Sprintf("      req  |%s| %4d request(s)\n", reqs, served))
		}

		if len(ft.Retries) > 0 {
			st := span.SummarizeRetries(ft)
			bar := make([]byte, width)
			for i := range bar {
				bar[i] = ' '
			}
			for _, r := range ft.Retries {
				pos := int(float64(r.TNS) * scale)
				if pos >= width {
					pos = width - 1
				}
				bar[pos] = '!'
			}
			bw.str(fmt.Sprintf("  retries  |%s| %d total, %d request(s), depth<=%d, peak %d/window\n",
				bar, st.Total, st.Unique, st.MaxDepth, st.PeakCount))
		}
	}
	return bw.err
}

// cellRange maps a [start, end] interval to inclusive cell indices; an
// interval always occupies at least its starting cell so short pauses stay
// visible.
func cellRange(start, end int64, scale float64, width int) (int, int) {
	lo := int(float64(start) * scale)
	hi := int(float64(end) * scale)
	if lo < 0 {
		lo = 0
	}
	if lo >= width {
		lo = width - 1
	}
	if hi >= width {
		hi = width - 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
