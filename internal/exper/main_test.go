package exper

import (
	"fmt"
	"os"
	"testing"
)

// TestMain fails the package when a test leaves a cache's write-behind
// goroutine running: each leak outlives its test for the rest of the
// binary, and it skews every test that counts writers (TestCLICloseClosesCache).
func TestMain(m *testing.M) {
	code := m.Run()
	if n := cacheWriters(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "%d (*Cache).writer goroutine(s) outlived the tests: close every cache a test opens (OpenTestCache)\n", n)
		code = 1
	}
	os.Exit(code)
}

// OpenTestCache opens a cache over dir that is closed when the test ends.
// The external tests in this directory use it too.
func OpenTestCache(t testing.TB, dir string, mode CacheMode) *Cache {
	t.Helper()
	c, err := OpenCache(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
