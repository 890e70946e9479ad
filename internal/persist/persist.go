// Package persist saves and reloads experiment results, so expensive
// sweeps can be archived and figures re-rendered offline — the role
// running-ng's results directory plays for the paper's artifact.
//
// Sweep results (LBO grids, geomeans, characterizations) and the experiment
// engine's small cache records ("minheap": one measured per-benchmark
// minimum heap; "generic": one opaque job payload) are versioned JSON
// archives. Schema v2 added the cache kinds; v1 archives of the original
// kinds load transparently through the migration path.
//
// The engine's invocation records — one simulator run each, keyed by the
// canonical job hash and carrying the run's full GC log — are not JSON but
// a framed binary record (invocation.go). The log's events and pauses are
// nearly all of a record's bytes; as fixed-width columns instead of
// indented JSON, the 162 records of the reduced paper plan perfbench runs
// shrink from 195 MB to 40 MB, and encode and decode in tens of
// milliseconds instead of seconds (DESIGN.md §5).
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"chopin/internal/lbo"
	"chopin/internal/nominal"
)

// Archive is the top-level saved document.
type Archive struct {
	// Version guards the schema; bump on incompatible change.
	Version int `json:"version"`
	// Kind describes the payload: "lbo-grid", "geomean", "characterization",
	// "minheap", "generic".
	Kind string `json:"kind"`

	Grid             *lbo.Grid                 `json:"grid,omitempty"`
	Geomean          []lbo.GeomeanPoint        `json:"geomean,omitempty"`
	Characterization *nominal.Characterization `json:"characterization,omitempty"`
	MinHeap          *MinHeapRecord            `json:"min_heap,omitempty"`
	Generic          *GenericRecord            `json:"generic,omitempty"`
}

// MinHeapRecord is one cached minimum-heap measurement: the validated GMD
// for a (descriptor, search parameters) pair, keyed like an invocation.
type MinHeapRecord struct {
	Key       string  `json:"key"`
	Workload  string  `json:"workload"`
	MinHeapMB float64 `json:"min_heap_mb"`
}

// GenericRecord is one cached result of an arbitrary engine job kind
// (exper.SubmitGeneric): an opaque JSON payload owned by the submitting
// subsystem (fleet sweep cells, future experiment kinds), keyed by the
// canonical content hash of the job's parameters. Kind names the submitting
// job family, for humans browsing a cache directory.
type GenericRecord struct {
	Key  string          `json:"key"`
	Kind string          `json:"job_kind"`
	Data json.RawMessage `json:"data"`
}

const (
	// currentVersion is the archive schema. v2 added the engine's cache
	// kinds; earlier versions migrate on load.
	currentVersion = 2
	oldestVersion  = 1
)

// CurrentVersion reports the schema version new archives are written with.
func CurrentVersion() int { return currentVersion }

// SaveGrid writes a benchmark's LBO grid.
func SaveGrid(path string, g *lbo.Grid) error {
	return write(path, Archive{Version: currentVersion, Kind: "lbo-grid", Grid: g})
}

// SaveGeomean writes cross-suite geomean points.
func SaveGeomean(path string, pts []lbo.GeomeanPoint) error {
	return write(path, Archive{Version: currentVersion, Kind: "geomean", Geomean: pts})
}

// SaveCharacterization writes one workload's nominal statistics.
func SaveCharacterization(path string, c *nominal.Characterization) error {
	return write(path, Archive{Version: currentVersion, Kind: "characterization", Characterization: c})
}

// SaveMinHeap writes one cached minimum-heap measurement.
func SaveMinHeap(path string, r *MinHeapRecord) error {
	return write(path, Archive{Version: currentVersion, Kind: "minheap", MinHeap: r})
}

// SaveGeneric writes one cached generic job result.
func SaveGeneric(path string, r *GenericRecord) error {
	return write(path, Archive{Version: currentVersion, Kind: "generic", Generic: r})
}

func write(path string, a Archive) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return writeFile(path, data)
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

// migrate upgrades an archive from its stored version to currentVersion,
// one version step at a time.
func migrate(path string, a *Archive) error {
	for a.Version < currentVersion {
		switch a.Version {
		case 1:
			// v1 -> v2: the envelope is unchanged for the original kinds;
			// the cache kinds did not exist yet, so a v1 archive claiming
			// one is corrupt rather than old.
			switch a.Kind {
			case "minheap", "generic":
				return fmt.Errorf("persist: %s: kind %q requires version 2, archive claims version 1", path, a.Kind)
			}
			a.Version = 2
		default:
			return fmt.Errorf("persist: %s: no migration from version %d", path, a.Version)
		}
	}
	return nil
}

// Load reads any archive, migrating older versions, and validates its
// envelope.
func Load(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var a Archive
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	if a.Version < oldestVersion || a.Version > currentVersion {
		return nil, fmt.Errorf("persist: %s: version %d outside supported range [%d, %d]",
			path, a.Version, oldestVersion, currentVersion)
	}
	if err := migrate(path, &a); err != nil {
		return nil, err
	}
	switch a.Kind {
	case "lbo-grid":
		if a.Grid == nil {
			return nil, fmt.Errorf("persist: %s: lbo-grid archive without grid", path)
		}
	case "geomean":
		if a.Geomean == nil {
			return nil, fmt.Errorf("persist: %s: geomean archive without points", path)
		}
	case "characterization":
		if a.Characterization == nil {
			return nil, fmt.Errorf("persist: %s: characterization archive without payload", path)
		}
	case "minheap":
		if a.MinHeap == nil {
			return nil, fmt.Errorf("persist: %s: minheap archive without record", path)
		}
		if a.MinHeap.MinHeapMB <= 0 {
			return nil, fmt.Errorf("persist: %s: minheap archive with non-positive heap %v",
				path, a.MinHeap.MinHeapMB)
		}
	case "generic":
		if a.Generic == nil {
			return nil, fmt.Errorf("persist: %s: generic archive without record", path)
		}
		if len(a.Generic.Data) == 0 {
			return nil, fmt.Errorf("persist: %s: generic archive without payload", path)
		}
	default:
		return nil, fmt.Errorf("persist: %s: unknown kind %q", path, a.Kind)
	}
	return &a, nil
}

// LoadGrid reads an LBO grid archive.
func LoadGrid(path string) (*lbo.Grid, error) {
	a, err := Load(path)
	if err != nil {
		return nil, err
	}
	if a.Kind != "lbo-grid" {
		return nil, fmt.Errorf("persist: %s holds %q, want lbo-grid", path, a.Kind)
	}
	return a.Grid, nil
}

// LoadGeomean reads a geomean archive.
func LoadGeomean(path string) ([]lbo.GeomeanPoint, error) {
	a, err := Load(path)
	if err != nil {
		return nil, err
	}
	if a.Kind != "geomean" {
		return nil, fmt.Errorf("persist: %s holds %q, want geomean", path, a.Kind)
	}
	return a.Geomean, nil
}

// LoadCharacterization reads a characterization archive.
func LoadCharacterization(path string) (*nominal.Characterization, error) {
	a, err := Load(path)
	if err != nil {
		return nil, err
	}
	if a.Kind != "characterization" {
		return nil, fmt.Errorf("persist: %s holds %q, want characterization", path, a.Kind)
	}
	return a.Characterization, nil
}

// LoadMinHeap reads a cached minimum-heap archive.
func LoadMinHeap(path string) (*MinHeapRecord, error) {
	a, err := Load(path)
	if err != nil {
		return nil, err
	}
	if a.Kind != "minheap" {
		return nil, fmt.Errorf("persist: %s holds %q, want minheap", path, a.Kind)
	}
	return a.MinHeap, nil
}

// LoadGeneric reads a cached generic job archive.
func LoadGeneric(path string) (*GenericRecord, error) {
	a, err := Load(path)
	if err != nil {
		return nil, err
	}
	if a.Kind != "generic" {
		return nil, fmt.Errorf("persist: %s holds %q, want generic", path, a.Kind)
	}
	return a.Generic, nil
}
