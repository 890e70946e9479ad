package main

import (
	"sync"
	"time"
)

// callSpan is one timed call from the benchmark into a layer's public entry
// point, in nanoseconds since the run started. Spans of one rep share Rep.
type callSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a rep's root
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory; the run writes them once at
// the end. Untraced reps carry a nil *spanLog, which records nothing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	rep   int
	spans []callSpan
}

// call times fn as a span named name in layer, under parent, and returns
// fn's duration; the duration is measured whether or not spans are kept.
func (l *spanLog) call(name, layer string, parent int, fn func()) time.Duration {
	id := l.begin(name, layer, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.end(id)
	return d
}

func (l *spanLog) begin(name, layer string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, callSpan{
		ID: len(l.spans) + 1, Parent: parent, Rep: l.rep,
		Name: name, Layer: layer, Start: int64(time.Since(l.epoch)),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = int64(time.Since(l.epoch))
}

// selfTimes sums each span name's self time over all reps: its duration
// minus the part of it that its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := map[int]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}
