package exper

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestParseFactors: only finite positive numbers pass, and a refusal names
// the flag it came from.
func TestParseFactors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		err  string
	}{
		{in: "", want: nil},
		{in: "1, 2.5,6", want: []float64{1, 2.5, 6}},
		{in: "1e-3", want: []float64{0.001}},
		{in: "0", err: `-rates: bad factor "0"`},
		{in: "-1", err: `-rates: bad factor "-1"`},
		{in: "2,NaN", err: `-rates: bad factor "NaN"`},
		{in: "Inf", err: `-rates: bad factor "Inf"`},
		{in: "+Inf", err: `-rates: bad factor "+Inf"`},
		{in: "-Inf", err: `-rates: bad factor "-Inf"`},
		{in: "1e400", err: `-rates: bad factor "1e400"`},
		{in: "1,,2", err: `-rates: bad factor ""`},
		{in: "two", err: `-rates: bad factor "two"`},
	} {
		got, err := ParseFactors("-rates", tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseFactors(%q) = %v, %v; want error %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFactors(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// cacheWriters counts the live write-behind goroutines of every open Cache,
// once two counts 10 ms apart agree: a writer whose Cache another test
// closed may still be returning, and one OpenCache just started may not yet
// have run.
func cacheWriters() int {
	for n := -1; ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		k := runtime.Stack(buf, true)
		for ; k == len(buf); k = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		m := strings.Count(string(buf[:k]), "exper.(*Cache).writer(")
		if m == n {
			return n
		}
		n = m
	}
}

// TestCLICloseClosesCache: the cache Build opened is closed by Close, so its
// writer goroutine exits, and a second Close is a no-op.
func TestCLICloseClosesCache(t *testing.T) {
	before := cacheWriters()
	c := CLI{CacheDir: t.TempDir()}
	if _, err := c.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	if n := cacheWriters(); n != before+1 {
		t.Fatalf("after Build: %d cache writers, want %d", n, before+1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cacheWriters(); n != before {
		t.Fatalf("after Close: %d cache writers, want %d", n, before)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
