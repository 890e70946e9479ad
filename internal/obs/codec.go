package obs

import (
	"encoding/json"
	"math"
	"strconv"
)

// The JSONL line codec: Event to one JSON line and back without
// reflection. The encoder writes exactly the bytes json.Encoder.Encode
// writes; the parser accepts only lines in that canonical shape, and
// DecodeJSONL hands anything else to encoding/json.

// appendEvent appends e's JSONL line to b: exactly the bytes
// json.Encoder.Encode writes for e. ok is false when a float field is NaN
// or ±Inf, which encoding/json refuses to encode.
func appendEvent(b []byte, e *Event) (line []byte, ok bool) {
	l := lineEncoder{b: b}
	l.event(e)
	return l.b, !l.nonFinite
}

// lineEncoder is appendEvent's state. It writes fields in struct order,
// omitempty as tagged, floats and strings as encoding/json formats them.
type lineEncoder struct {
	b []byte
	// nonFinite is set when a float field is NaN or ±Inf, which
	// encoding/json refuses to encode; b is then incomplete.
	nonFinite bool
}

func (l *lineEncoder) event(e *Event) {
	l.b = AppendJSONString(append(l.b, `{"kind":`...), e.Kind.String())
	l.int(`,"seq":`, e.Seq)
	l.b = strconv.AppendInt(append(l.b, `,"t_ns":`...), e.TNS, 10)
	l.str(`,"run":`, e.Run)
	l.str(`,"benchmark":`, e.Benchmark)
	l.str(`,"collector":`, e.Collector)
	l.str(`,"phase":`, e.Phase)
	l.float(`,"dur_ns":`, e.DurNS)
	l.float(`,"cpu_ns":`, e.CPUNS)
	l.float(`,"value":`, e.Value)
	l.float(`,"aux":`, e.Aux)
	l.int(`,"cycle":`, e.Cycle)
	l.int(`,"cause":`, e.Cause)
	l.float(`,"heap_used":`, e.HeapUsed)
	l.float(`,"live_est":`, e.LiveEst)
	l.float(`,"mut_frac":`, e.MutFrac)
	l.float(`,"gc_frac":`, e.GCFrac)
	l.float(`,"stall_frac":`, e.StallFrac)
	l.float(`,"busy_ns":`, e.BusyNS)
	l.float(`,"steal_ns":`, e.StealNS)
	l.float(`,"park_ns":`, e.ParkNS)
	l.float(`,"tasks":`, e.Tasks)
	l.float(`,"steals":`, e.Steals)
	l.float(`,"queue_max":`, e.QueueMax)
	l.int(`,"replica":`, int64(e.Replica))
	l.int(`,"queue_ns":`, e.QueueNS)
	l.int(`,"gc_ns":`, e.GCNS)
	l.int(`,"service_ns":`, e.ServiceNS)
	l.int(`,"retry_ns":`, e.RetryNS)
	l.int(`,"gc_pauses":`, e.GCPauses)
	l.int(`,"in_flight":`, e.InFlight)
	l.float(`,"goodput":`, e.Goodput)
	l.float(`,"burn_rate":`, e.BurnRate)
	l.str(`,"err":`, e.Err)
	l.b = append(l.b, "}\n"...)
}

// int appends an omitempty integer field; key carries its punctuation.
func (l *lineEncoder) int(key string, v int64) {
	if v != 0 {
		l.b = strconv.AppendInt(append(l.b, key...), v, 10)
	}
}

// float appends an omitempty float field (-0 counts as empty).
func (l *lineEncoder) float(key string, v float64) {
	switch {
	case v == 0:
	case math.IsNaN(v) || math.IsInf(v, 0):
		l.nonFinite = true
	default:
		l.b = appendFloat(append(l.b, key...), v)
	}
}

// str appends an omitempty string field.
func (l *lineEncoder) str(key, s string) {
	if s != "" {
		l.b = AppendJSONString(append(l.b, key...), s)
	}
}

// appendFloat formats a finite float64 as encoding/json does: 'f' format,
// or 'e' outside [1e-6, 1e21) with a two-digit negative exponent shortened
// (e-07 → e-7). A nonzero integer below 2^53 in magnitude, most of what a
// stream carries, is written as its digits, which is exactly its shortest
// 'f' form: every integer in that range is a float64, so no shorter decimal
// rounds to it.
func appendFloat(b []byte, v float64) []byte {
	if a := math.Abs(v); a >= 1 && a < 1<<53 {
		if i := int64(v); float64(i) == v {
			return strconv.AppendInt(b, i, 10)
		}
	}
	fmt := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, v, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendJSONString appends s JSON-quoted exactly as encoding/json quotes
// it. Plain ASCII is copied as is; a string needing any escape (quote,
// backslash, control character, <, >, &, or any non-ASCII byte) is left to
// json.Marshal. The Chrome trace writers in traceview share it.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// lineParser decodes canonical JSONL lines. It remembers the last value of
// each string field, so the run, benchmark and collector names a stream
// repeats on every line are allocated once, not per event.
type lineParser struct {
	run, benchmark, collector, phase, err string
}

// parse fills e from line, which must end in '\n', and reports whether line
// was one canonical event object: no whitespace, each key a known Event
// field, strings of plain ASCII without escapes, numbers in JSON grammar
// and integers in the integer fields. For an accepted line, e is what
// encoding/json decodes from it. A false return leaves e partly filled, and
// the caller decodes the line through encoding/json instead.
func (p *lineParser) parse(line []byte, e *Event) bool {
	n := len(line) - 1 // the '\n'
	if n < 2 || line[0] != '{' || line[n-1] != '}' {
		return false
	}
	b := line[1 : n-1]
	for len(b) > 0 {
		key, ok := plainString(b)
		if !ok || len(b) < len(key)+3 || b[len(key)+2] != ':' {
			return false
		}
		if b, ok = p.field(e, key, b[len(key)+3:]); !ok {
			return false
		}
		if len(b) > 0 {
			if b[0] != ',' || len(b) == 1 {
				return false
			}
			b = b[1:]
		}
	}
	return true
}

// field parses the value of member key at the start of b into e and
// returns the rest of b.
func (p *lineParser) field(e *Event, key, b []byte) ([]byte, bool) {
	switch string(key) {
	case "kind":
		s, ok := plainString(b)
		if !ok {
			return b, false
		}
		e.Kind = kindNamed(s)
		return b[len(s)+2:], true
	case "seq":
		return parseInt(b, &e.Seq)
	case "t_ns":
		return parseInt(b, &e.TNS)
	case "run":
		return p.string(b, &p.run, &e.Run)
	case "benchmark":
		return p.string(b, &p.benchmark, &e.Benchmark)
	case "collector":
		return p.string(b, &p.collector, &e.Collector)
	case "phase":
		return p.string(b, &p.phase, &e.Phase)
	case "dur_ns":
		return parseFloat(b, &e.DurNS)
	case "cpu_ns":
		return parseFloat(b, &e.CPUNS)
	case "value":
		return parseFloat(b, &e.Value)
	case "aux":
		return parseFloat(b, &e.Aux)
	case "cycle":
		return parseInt(b, &e.Cycle)
	case "cause":
		return parseInt(b, &e.Cause)
	case "heap_used":
		return parseFloat(b, &e.HeapUsed)
	case "live_est":
		return parseFloat(b, &e.LiveEst)
	case "mut_frac":
		return parseFloat(b, &e.MutFrac)
	case "gc_frac":
		return parseFloat(b, &e.GCFrac)
	case "stall_frac":
		return parseFloat(b, &e.StallFrac)
	case "busy_ns":
		return parseFloat(b, &e.BusyNS)
	case "steal_ns":
		return parseFloat(b, &e.StealNS)
	case "park_ns":
		return parseFloat(b, &e.ParkNS)
	case "tasks":
		return parseFloat(b, &e.Tasks)
	case "steals":
		return parseFloat(b, &e.Steals)
	case "queue_max":
		return parseFloat(b, &e.QueueMax)
	case "replica":
		var v int64
		b, ok := parseInt(b, &v)
		e.Replica = int(v)
		return b, ok && int64(e.Replica) == v
	case "queue_ns":
		return parseInt(b, &e.QueueNS)
	case "gc_ns":
		return parseInt(b, &e.GCNS)
	case "service_ns":
		return parseInt(b, &e.ServiceNS)
	case "retry_ns":
		return parseInt(b, &e.RetryNS)
	case "gc_pauses":
		return parseInt(b, &e.GCPauses)
	case "in_flight":
		return parseInt(b, &e.InFlight)
	case "goodput":
		return parseFloat(b, &e.Goodput)
	case "burn_rate":
		return parseFloat(b, &e.BurnRate)
	case "err":
		return p.string(b, &p.err, &e.Err)
	}
	return b, false
}

// string parses a plain string at the start of b into *dst. A value equal
// to *last, the field's previous value, is matched without rescanning and
// shares its allocation.
func (p *lineParser) string(b []byte, last, dst *string) ([]byte, bool) {
	if n := len(*last); len(b) > n+1 && b[0] == '"' && b[n+1] == '"' && string(b[1:n+1]) == *last {
		*dst = *last
		return b[n+2:], true
	}
	s, ok := plainString(b)
	if !ok {
		return b, false
	}
	*last = string(s)
	*dst = *last
	return b[len(s)+2:], true
}

// plainString returns the contents of the quoted JSON string at the start
// of b when it needs no unescaping: printable ASCII without a backslash.
func plainString(b []byte) ([]byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// kindNamed resolves a kind name leniently: a name this binary does not
// know is KindUnknown.
func kindNamed(name []byte) Kind {
	for k, s := range kindNames[:] { // a slice: ranging over the array copies it
		if string(name) == s {
			return Kind(k)
		}
	}
	return KindUnknown
}

// parseInt parses the JSON integer at the start of b into *dst, failing on
// overflow as encoding/json does. A fraction or exponent is left in the
// returned rest, where the caller's grammar check rejects it.
func parseInt(b []byte, dst *int64) ([]byte, bool) {
	n := numberLen(b, true)
	switch {
	case n < 0:
		return b, false
	case n > 18: // might overflow int64
		v, err := strconv.ParseInt(string(b[:n]), 10, 64)
		*dst = v
		return b[n:], err == nil
	}
	var v int64
	for _, c := range b[:n] {
		if c != '-' {
			v = v*10 + int64(c-'0')
		}
	}
	if b[0] == '-' {
		v = -v
	}
	*dst = v
	return b[n:], true
}

// parseFloat parses the JSON number at the start of b into *dst, failing
// where encoding/json fails (out of range). An integer of at most 15
// digits, most of what a stream carries, is accumulated as an int64 and
// converted, which is exact: it is below 2^53.
func parseFloat(b []byte, dst *float64) ([]byte, bool) {
	n := numberLen(b, false)
	if n < 0 {
		return b, false
	}
	if v, ok := smallInt(b[:n]); ok {
		*dst = v
		return b[n:], true
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	*dst = v
	return b[n:], err == nil
}

// smallInt converts a JSON number with no fraction or exponent and at most
// 15 digits, keeping the sign of -0; ok is false for any other number.
func smallInt(num []byte) (v float64, ok bool) {
	d := num
	if d[0] == '-' {
		d = d[1:]
	}
	if len(d) > 15 {
		return 0, false
	}
	var n int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	v = float64(n)
	if num[0] == '-' {
		v = -v
	}
	return v, true
}

// numberLen returns the length of the JSON number at the start of b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, without fraction or
// exponent when intOnly, or -1 when b does not start with one.
func numberLen(b []byte, intOnly bool) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	default:
		if i = digits(b, i); i < 0 {
			return -1
		}
	}
	if intOnly {
		return i
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return -1
		}
	}
	return i
}

// digits returns the index past the run of decimal digits starting at i,
// or -1 when there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}
