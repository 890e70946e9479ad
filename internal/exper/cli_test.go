package exper

import (
	"reflect"
	"testing"
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
