package main

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"chopin/internal/exper"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPlanGolden runs a tiny plan holding one experiment of every type
// (testdata/golden.json: a few benchmarks, a few hundred events, seed 42)
// and compares every file it writes with testdata/golden/, byte for byte,
// so each type's output format is pinned. -update rewrites the goldens.
func TestPlanGolden(t *testing.T) {
	plan, err := decodePlan(mustRead(t, filepath.Join("testdata", "golden.json")))
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, exp := range plan.Experiments {
		types[exp.Type] = true
	}
	for typ := range experimentTypes {
		if !types[typ] {
			t.Errorf("golden plan has no %s experiment", typ)
		}
	}

	tmp := t.TempDir()
	out := filepath.Join(tmp, "out")
	cli := exper.CLI{CacheDir: filepath.Join(tmp, "cache")}
	if err := run(filepath.Join("testdata", "golden.json"), out, &cli); err != nil {
		t.Fatal(err)
	}

	goldenDir := filepath.Join("testdata", "golden")
	got := listFiles(t, out)
	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), mustRead(t, filepath.Join(out, name)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := listFiles(t, goldenDir)
	if len(got) != len(want) {
		t.Fatalf("plan wrote %d files %v, want the %d goldens %v", len(got), got, len(want), want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("plan wrote %v, want %v", got, want)
		}
		if g, w := mustRead(t, filepath.Join(out, name)), mustRead(t, filepath.Join(goldenDir, name)); string(g) != string(w) {
			t.Errorf("%s differs from its golden:\n%s\nwant\n%s", name, g, w)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// listFiles returns the sorted names of the regular files in dir.
func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
