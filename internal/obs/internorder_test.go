package obs_test

import (
	"testing"

	"chopin/internal/obs/internorder"
)

// vocabulary is every name the fleet excerpt carries, and the phase names a
// collector records.
var vocabulary = []string{
	"a0f1a36d7770e7446ad1e61f059e0b44d7aed780347436f54747cea6194d388b",
	"fleet", "micro-pauseprobe", "G1", "young", "full", "concurrent", "gc-aware",
}

func TestMain(m *testing.M) { internorder.Main(m, vocabulary) }

// TestSchedTableIgnoresInternOrder renders the scheduler table golden and
// decodes the fleet excerpt again with the names interned in reverse and in
// shuffled order.
func TestSchedTableIgnoresInternOrder(t *testing.T) {
	internorder.Check(t, "TestWriteSchedTableGolden", "TestDecodeStreamPrefixes")
}
