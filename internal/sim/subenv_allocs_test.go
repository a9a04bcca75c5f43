//go:build !race

package sim

import "testing"

// TestSubEnvExchangeZeroAllocs pins the reuse: once the translation buffers
// have grown to the round's size, a Send and an Exchange through a SubEnv
// allocate nothing of their own. Excluded under -race: the detector's
// instrumentation allocates on its own behalf.
func TestSubEnvExchangeZeroAllocs(t *testing.T) {
	const k = 16
	members := make([]int, k)
	all := make([]int, k)
	for i := range members {
		members[i] = 3 * i
		all[i] = i
	}
	parent := &stubEnv{id: members[5], n: 3 * k}
	for _, g := range members {
		parent.inbox = append(parent.inbox, Msg(g, parent.id, bitPayload{g}), Msg(g+1, parent.id, bitPayload{g}))
	}
	sub := NewSubEnv(parent, members, 0)
	round := func() {
		sub.Send(bitPayload{1}, all)
		sub.Exchange(nil)
	}
	round() // grow the buffers
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state SubEnv.Exchange: %v allocs per round, want 0", allocs)
	}
}
