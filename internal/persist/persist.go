// Package persist stores the experiment engine's cache records on disk.
//
// The engine's small records are versioned JSON archives of one kind,
// "generic": an opaque JSON payload such as a fleet cell's report or a
// measured minimum heap. Only schema v2 is read: v1 archives held sweep
// results (LBO grids, geomeans, characterizations), and older v2 caches
// held a dedicated "minheap" kind; this package stores neither.
//
// The engine's invocation records — one simulator run each, keyed by the
// canonical job hash and carrying the run's measurements, its full GC log
// and, when latency was recorded, every event's start and end — are not
// JSON but a framed binary record of fixed-width words (invocation.go): the
// key, the result's scalars and iterations, then the log's events and
// pauses and the latencies as columns. The record stores nothing the job
// key already fixes (the workload name, the run's config). The columns are
// nearly all of a record's bytes, and as binary words they are a fifth the
// size of indented JSON and decode without a JSON parser (DESIGN.md §5).
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Archive is the top-level saved document.
type Archive struct {
	// Version guards the schema; bump on incompatible change.
	Version int `json:"version"`
	// Kind describes the payload: always "generic".
	Kind string `json:"kind"`

	Generic *GenericRecord `json:"generic,omitempty"`
}

// GenericRecord is one cached result of an engine job that is not a single
// invocation (exper.SubmitGeneric, min-heap measurements): an opaque JSON
// payload owned by the submitting subsystem, keyed by the canonical content
// hash of the job's parameters. Kind names the submitting job family, for
// humans browsing a cache directory.
type GenericRecord struct {
	Key  string          `json:"key"`
	Kind string          `json:"job_kind"`
	Data json.RawMessage `json:"data"`
}

const (
	// currentVersion is the archive schema; oldestVersion is the oldest
	// one Load accepts.
	currentVersion = 2
	oldestVersion  = 2
)

// SaveGeneric writes one cached generic job result.
func SaveGeneric(path string, r *GenericRecord) error {
	data, err := encodeArchive(&Archive{Version: currentVersion, Kind: "generic", Generic: r})
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// encodeArchive is the bytes write saves: the inverse of decodeArchive.
func encodeArchive(a *Archive) ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return data, nil
}

// writeFile publishes data at path write-then-rename, so concurrent engine
// workers never observe a half-written archive or record.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Load reads any archive and validates its envelope.
func Load(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	a, err := decodeArchive(data)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return a, nil
}

// decodeArchive is Load without the file: it parses an archive's bytes and
// validates the envelope.
func decodeArchive(data []byte) (*Archive, error) {
	var a Archive
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if a.Version < oldestVersion || a.Version > currentVersion {
		return nil, fmt.Errorf("version %d outside supported range [%d, %d]",
			a.Version, oldestVersion, currentVersion)
	}
	switch {
	case a.Kind != "generic":
		return nil, fmt.Errorf("unknown kind %q", a.Kind)
	case a.Generic == nil:
		return nil, fmt.Errorf("generic archive without record")
	case len(a.Generic.Data) == 0:
		return nil, fmt.Errorf("generic archive without payload")
	}
	return &a, nil
}

// LoadGeneric reads a cached generic job archive.
func LoadGeneric(path string) (*GenericRecord, error) {
	a, err := Load(path)
	if err != nil {
		return nil, err
	}
	return a.Generic, nil
}
