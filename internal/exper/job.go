package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"chopin/internal/cpuarch"
	"chopin/internal/workload"
)

// schemaVersion invalidates every cached result when the engine's hashing
// layout or the shape of stored results changes incompatibly. It tracks
// persist's archive schema.
const schemaVersion = 2

// Key is the canonical content hash of a job: hex SHA-256 over the model
// digest, the schema version, the complete workload descriptor and the
// normalized RunConfig. Hashing the descriptor's content (not just its
// name) keeps size-scaled variants — which share a name — from colliding,
// and invalidates cached results whenever a workload model is recalibrated.
type Key string

// Shard returns the two-character directory shard the key files under.
func (k Key) Shard() string {
	if len(k) < 2 {
		return "xx"
	}
	return string(k[:2])
}

// Job is one first-class unit of work: a single simulator invocation of one
// benchmark under one configuration. Everything the engine executes —
// sweep cells, latency runs, min-heap probes — is a Job.
type Job struct {
	Desc *workload.Descriptor
	Cfg  workload.RunConfig
	key  Key
}

// NewJob builds a job and its canonical key. The config is normalized the
// same way workload.Run normalizes it (default machine, minimum iteration
// count), so spellings that execute identically hash identically.
func NewJob(d *workload.Descriptor, cfg workload.RunConfig) (Job, error) {
	j := Job{Desc: d, Cfg: cfg}
	key, err := hashPayload(struct {
		Schema     int                  `json:"schema"`
		Kind       string               `json:"kind"`
		Descriptor *workload.Descriptor `json:"descriptor"`
		Cfg        workload.RunConfig   `json:"cfg"`
	}{schemaVersion, "invocation", d, normalize(cfg)})
	if err != nil {
		return Job{}, fmt.Errorf("exper: hashing %s job: %w", d.Name, err)
	}
	j.key = key
	return j, nil
}

// Key returns the job's canonical content hash.
func (j Job) Key() Key { return j.key }

// MinHeapParams selects a minimum-heap measurement: the probe budget and
// the invocation seeds the bound must be validated against. It mirrors the
// sweep options whose 1x row the bound anchors.
type MinHeapParams struct {
	Events      int    `json:"events"`
	Iterations  int    `json:"iterations"`
	Invocations int    `json:"invocations"`
	Seed        uint64 `json:"seed"`
}

// minHeapKey is the canonical key of a min-heap measurement, covering the
// descriptor content and the search parameters.
func minHeapKey(d *workload.Descriptor, p MinHeapParams) (Key, error) {
	key, err := hashPayload(struct {
		Schema     int                  `json:"schema"`
		Kind       string               `json:"kind"`
		Descriptor *workload.Descriptor `json:"descriptor"`
		Params     MinHeapParams        `json:"params"`
	}{schemaVersion, minHeapKind, d, p})
	if err != nil {
		return "", fmt.Errorf("exper: hashing %s min-heap: %w", d.Name, err)
	}
	return key, nil
}

// normalize applies workload.Run's own defaulting so equivalent configs
// share a hash: the zero machine is the reference Zen4, iterations are at
// least 1. It drops the Recorder, which a cached Result does not carry.
func normalize(cfg workload.RunConfig) workload.RunConfig {
	cfg.Recorder = nil
	if cfg.Machine.Name == "" {
		cfg.Machine = cpuarch.Zen4
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}
	return cfg
}

// hashPayload hashes workload.ModelDigest, then the canonical JSON encoding
// of v: encoding/json emits struct fields in declaration order and
// round-trips float64 exactly, which makes the encoding a stable canonical
// form. A model change that moves a workload golden moves every key.
func hashPayload(v any) (Key, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(workload.ModelDigest), b...))
	return Key(hex.EncodeToString(sum[:])), nil
}
