package trace

// The paper (Section 4.2) notes that minimum-heap methodologies reflect a
// workload's peak memory use, and that "a metric which reflected the 'area
// under the memory use curve' might better reflect the net memory footprint
// of a workload". This file implements that suggested metric over the GC
// telemetry: the time-weighted mean of post-collection occupancy.

// FootprintAUC returns the time-weighted average heap occupancy in bytes
// over [start, end), integrating the post-GC occupancy staircase recorded in
// the log. Between two collections the occupancy is at least the level the
// previous collection left (allocation only adds to it), so this is a lower
// bound on true average footprint — conservative in the same direction as
// LBO.
func (l *Log) FootprintAUC(start, end int64) float64 {
	if end <= start {
		return 0
	}
	var area float64 // byte-nanoseconds
	cursor := start
	level := 0.0
	for _, e := range l.Events {
		if e.End < start {
			level = e.UsedAfter
			continue
		}
		if e.End >= end {
			break
		}
		area += level * float64(e.End-cursor)
		cursor = e.End
		level = e.UsedAfter
	}
	area += level * float64(end-cursor)
	return area / float64(end-start)
}
