package traceview_test

import (
	"testing"

	"chopin/internal/obs/internorder"
)

// vocabulary is every name the fixture streams of this package carry.
var vocabulary = []string{
	"cell-a", "cell-b", "cell-c", "solo", "job-a", "job-b",
	"lusearch", "avrora", "G1", "Serial", "Shenandoah",
	"young", "full", "concurrent", "degenerate", "gc-aware", "gc-aware-avoid",
}

func TestMain(m *testing.M) { internorder.Main(m, vocabulary) }

// TestGoldensIgnoreInternOrder renders every golden file again, and the
// fleet traces in every run order, with the fixtures' names interned in
// reverse and in shuffled order.
func TestGoldensIgnoreInternOrder(t *testing.T) {
	internorder.Check(t, "TestChromeTraceGolden", "TestTimelineGolden",
		"TestFleetChromeGolden", "TestFleetTimelineGolden", "TestFleetRenderIndependentOfRunOrder")
}
