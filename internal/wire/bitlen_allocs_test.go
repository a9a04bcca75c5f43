//go:build !race

package wire_test

import (
	"testing"

	"omicon/internal/core"
	"omicon/internal/wire"
)

// TestBitLenZeroAllocs pins the point of the reused measuring buffer: once
// it is warm, measuring a message allocates nothing, whether a gossip
// payload with one entry per group or the empty acknowledgment. Excluded
// under -race, where sync.Pool drops buffers on purpose.
func TestBitLenZeroAllocs(t *testing.T) {
	for _, m := range []wire.Marshaler{spread32(), core.AckMsg{}} {
		wire.BitLen(m) // warm the buffer
		if allocs := testing.AllocsPerRun(1000, func() { wire.BitLen(m) }); allocs != 0 {
			t.Errorf("BitLen(%T): %v allocs per call, want 0", m, allocs)
		}
	}
}
