// Package internorder checks that what a package renders does not depend on
// the order names were interned in. An obs.Name's number is its position in
// the process-wide intern table, so code that sorts, hashes or prints by it
// produces output that changes with whichever name a process happened to
// meet first. The check runs chosen tests again in child processes that
// intern the package's vocabulary in reverse and in shuffled order before
// any test runs; tests that compare against committed golden files then
// prove the output byte-identical under each order.
//
// Wire it up from the package's TestMain and one test:
//
//	func TestMain(m *testing.M) { internorder.Main(m, vocabulary) }
//
//	func TestGoldensIgnoreInternOrder(t *testing.T) {
//		internorder.Check(t, "TestChromeTraceGolden", "TestTimelineGolden")
//	}
package internorder

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"chopin/internal/obs"
)

// env names the order a child process interns its vocabulary in.
const env = "CHOPIN_INTERN_ORDER"

// orders are the interning orders Check runs the tests under.
var orders = []string{"reverse", "shuffle"}

// Main runs the tests. In a child process that Check started, it first
// interns vocab in the order the child was asked for, and exits with an
// error if any of those names was already interned, since the order would
// then not be the one asked for.
func Main(m *testing.M, vocab []string) {
	if order := os.Getenv(env); order != "" {
		if err := internIn(order, vocab); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.Exit(m.Run())
}

// internIn interns the distinct non-empty names of vocab in the given
// order.
func internIn(order string, vocab []string) error {
	v := slices.Clone(vocab)
	slices.Sort(v)
	v = slices.DeleteFunc(slices.Compact(v), func(s string) bool { return s == "" })
	switch order {
	case "reverse":
		slices.Reverse(v)
	case "shuffle":
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	default:
		return fmt.Errorf("internorder: unknown order %q", order)
	}
	var last obs.Name
	for _, s := range v {
		n := obs.Intern(s)
		if n <= last {
			return fmt.Errorf("internorder: %q was interned before the %s vocabulary", s, order)
		}
		last = n
	}
	return nil
}

// Check runs the named tests in a child process per interning order and
// fails t unless each passes there. It is skipped inside such a child.
func Check(t *testing.T, tests ...string) {
	t.Helper()
	if os.Getenv(env) != "" {
		t.Skip("already running under a chosen interning order")
	}
	run := "^(" + strings.Join(tests, "|") + ")$"
	for _, order := range orders {
		cmd := exec.Command(os.Args[0], "-test.run="+run, "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), env+"="+order)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("%s interning order: %v\n%s", order, err, out)
			continue
		}
		for _, name := range tests {
			if !strings.Contains(string(out), "--- PASS: "+name+" ") {
				t.Errorf("%s interning order: %s did not run\n%s", order, name, out)
			}
		}
	}
}
