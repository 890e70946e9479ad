package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chopin/internal/obs/internorder"
)

var update = flag.Bool("update", false, "rewrite the golden report")

// excerpt is a real fleet stream cut down to a few events.
var excerpt = filepath.Join("..", "..", "internal", "obs", "testdata", "fleet-excerpt.jsonl")

func TestMain(m *testing.M) { internorder.Main(m, excerptNames()) }

// excerptNames returns every name the excerpt carries, read without
// interning them.
func excerptNames() []string {
	f, err := os.Open(excerpt)
	if err != nil {
		return nil // TestFleetReportGolden reports the missing file
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e map[string]any
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		for _, k := range []string{"run", "benchmark", "collector", "phase", "err"} {
			if s, ok := e[k].(string); ok {
				names = append(names, s)
			}
		}
	}
	return names
}

// runReport runs the command with args and returns what it printed to
// standard output.
func runReport(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, osArgs, cmdLine := os.Stdout, os.Stderr, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Stderr, os.Args, flag.CommandLine = stdout, stderr, osArgs, cmdLine }()
	os.Stdout, os.Stderr = out, out
	os.Args = append([]string{"obsreport"}, args...)
	flag.CommandLine = flag.NewFlagSet("obsreport", flag.ExitOnError)
	main()
	os.Stdout = stdout
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetReportGolden pins obsreport -fleet over the fleet excerpt: the
// stream audit, the aggregate tables and the fleet forensics.
func TestFleetReportGolden(t *testing.T) {
	got := runReport(t, "-fleet", excerpt)
	golden := filepath.Join("testdata", "fleet-excerpt.fleet.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("obsreport -fleet drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestFleetReportIgnoresInternOrder renders the golden report again with
// the excerpt's names interned in reverse and in shuffled order.
func TestFleetReportIgnoresInternOrder(t *testing.T) {
	internorder.Check(t, "TestFleetReportGolden")
}
