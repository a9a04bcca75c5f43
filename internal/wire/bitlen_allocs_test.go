//go:build !race

package wire_test

import (
	"testing"

	"omicon/internal/core"
	"omicon/internal/dolevstrong"
	"omicon/internal/paramomissions"
	"omicon/internal/wire"
)

// TestBitLenZeroAllocs pins the point of the reused measuring buffer: once
// it is warm, measuring a message allocates nothing, whether a gossip
// payload with one entry per group, the empty acknowledgment, a signer
// chain or Algorithm 4's flood and safety bits. Excluded under -race, where
// sync.Pool drops buffers on purpose.
func TestBitLenZeroAllocs(t *testing.T) {
	for _, m := range []wire.Marshaler{
		spread32(), core.AckMsg{},
		dolevstrong.RelayMsg{Sender: 300, V: 1, Chain: []int{300, 4, 129, 70000}},
		paramomissions.FloodMsg{Has: true, B: 1}, paramomissions.SafetyMsg{B: 1},
	} {
		wire.BitLen(m) // warm the buffer
		if allocs := testing.AllocsPerRun(1000, func() { wire.BitLen(m) }); allocs != 0 {
			t.Errorf("BitLen(%T): %v allocs per call, want 0", m, allocs)
		}
	}
}
