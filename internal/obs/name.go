package obs

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Name is a handle to a string in the process-wide intern table: the run,
// benchmark, collector, phase and error names an Event carries. Holding
// names as handles keeps Event free of pointers, so a slice of events is
// neither zeroed by the allocator on growth nor scanned by the garbage
// collector, and two events share a name without sharing a string header.
//
// Intern("") is always 0, the zero Name, so an Event's unset name fields
// marshal away under omitempty as empty strings did. Any other value is an
// index in interning order, which differs between processes and between
// runs: no ordering, output or digest may depend on a Name's number. Compare
// two Names for equality, key maps by them, and order them by String.
//
// The table is append-only and lives as long as the process. Interning is
// for the small vocabulary a process records under (job keys, benchmarks,
// collectors, phases, balancer reasons, error messages); a decoded stream
// adds every distinct name it carries, so a hostile stream grows the table
// by about twice the bytes of the distinct names it holds.
type Name uint32

// nameEntry is one interned string and its JSON form.
type nameEntry struct {
	s string
	// json is s quoted exactly as encoding/json quotes it, so the line
	// encoder appends it without rescanning the string per event.
	json string
}

// names is the intern table. Readers index the published snapshot without
// a lock; Intern appends under mu and publishes a longer snapshot. Entries
// at or past a published snapshot's length are never read through it, so
// appending into spare capacity of a shared backing array is safe.
var names struct {
	mu    sync.Mutex
	index map[string]Name
	tab   atomic.Pointer[[]nameEntry]
}

func init() {
	names.index = map[string]Name{"": 0}
	tab := append(make([]nameEntry, 0, 64), nameEntry{json: `""`})
	names.tab.Store(&tab)
}

// Intern returns the Name of s, adding s to the table on first use. It is
// safe for concurrent use. Producers intern once per run, job or phase
// kind, not once per event.
func Intern(s string) Name {
	names.mu.Lock()
	defer names.mu.Unlock()
	if n, ok := names.index[s]; ok {
		return n
	}
	return addName(strings.Clone(s)) // s may share a large buffer
}

// internBytes is Intern for a name in a read buffer: it allocates only
// when b is new to the table.
func internBytes(b []byte) Name {
	names.mu.Lock()
	defer names.mu.Unlock()
	if n, ok := names.index[string(b)]; ok {
		return n
	}
	return addName(string(b))
}

// addName appends s, which is not yet interned, and publishes the longer
// table. names.mu is held.
func addName(s string) Name {
	tab := nameTable()
	n := Name(len(tab))
	if int(n) != len(tab) {
		panic("obs: name table full")
	}
	tab = append(tab, nameEntry{s: s, json: string(AppendJSONString(nil, s))})
	names.index[s] = n
	names.tab.Store(&tab)
	return n
}

// nameTable returns the published table; every Name handed out before the
// call indexes it.
func nameTable() []nameEntry { return *names.tab.Load() }

// String returns the interned string. It takes no lock.
func (n Name) String() string { return nameTable()[n].s }

// MarshalText writes the name as its string, so encoding/json writes a Name
// field exactly as it wrote the string field it replaced.
func (n Name) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText interns the decoded string.
func (n *Name) UnmarshalText(b []byte) error {
	*n = internBytes(b)
	return nil
}
