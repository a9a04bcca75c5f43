package wire_test

import (
	"sync"
	"testing"

	"omicon/internal/benor"
	"omicon/internal/committee"
	"omicon/internal/core"
	"omicon/internal/distrib"
	"omicon/internal/dolevstrong"
	"omicon/internal/earlystop"
	"omicon/internal/floodset"
	"omicon/internal/multivalue"
	"omicon/internal/paramomissions"
	"omicon/internal/phaseking"
	"omicon/internal/wire"
)

// spread32 is a gossip payload of the size a Theorem-1 round at n=1024
// carries: one entry per group.
func spread32() core.SpreadMsg {
	m := core.SpreadMsg{Entries: make([]core.GroupCount, 32)}
	for g := range m.Entries {
		m.Entries[g] = core.GroupCount{Group: g, Ones: 17 + g, Zeros: 300 * g}
	}
	return m
}

// payloadTable holds one populated and one zero value of every payload
// type a simulation or a dispatch connection measures with wire.BitLen.
// transport's coordinator-side payload is unexported and is checked by
// TestRawPayloadBitLenMatchesEncode in its own package.
func payloadTable() []wire.Marshaler {
	big := make([]byte, 5000) // outgrows any buffer a smaller payload left behind
	for i := range big {
		big[i] = byte(i)
	}
	return []wire.Marshaler{
		core.SourceCountsMsg{Ones: 200, Zeros: 1 << 20}, core.SourceCountsMsg{},
		core.AckMsg{},
		core.MergedCountsMsg{HasLeft: true, LeftOnes: 130, LeftZeros: 2, HasRight: true, RightOnes: 1, RightZeros: 1 << 15},
		core.MergedCountsMsg{HasRight: true, RightZeros: 128}, core.MergedCountsMsg{},
		spread32(), core.SpreadMsg{},
		core.DecisionBcastMsg{B: 1}, core.DecisionBcastMsg{},
		core.FinalDecisionMsg{B: 1}, core.FinalDecisionMsg{},
		phaseking.ValueMsg{V: 2}, phaseking.ValueMsg{},
		phaseking.KingMsg{V: 1}, phaseking.KingMsg{},
		dolevstrong.RelayMsg{Sender: 300, V: 1, Chain: []int{300, 4, 129, 70000}}, dolevstrong.RelayMsg{},
		multivalue.ProposalMsg{Value: big}, multivalue.ProposalMsg{},
		multivalue.InputMsg{Value: []byte("in")}, multivalue.InputMsg{},
		multivalue.EchoMsg{Value: []byte("echo")}, multivalue.EchoMsg{},
		multivalue.RecoverMsg{Value: big[:200]}, multivalue.RecoverMsg{},
		earlystop.PrefMsg{V: 1}, earlystop.PrefMsg{},
		earlystop.KingMsg{V: 1}, earlystop.KingMsg{},
		earlystop.DecidedMsg{V: 1}, earlystop.DecidedMsg{},
		floodset.SetMsg{Has0: true, Has1: true}, floodset.SetMsg{},
		benor.ValueMsg{B: 2, Decided: true}, benor.ValueMsg{},
		paramomissions.FloodMsg{Has: true, B: 1}, paramomissions.FloodMsg{},
		paramomissions.SafetyMsg{B: 1}, paramomissions.SafetyMsg{},
		committee.InputMsg{B: 1}, committee.InputMsg{},
		committee.VoteMsg{B: 1}, committee.VoteMsg{},
		committee.DecisionMsg{B: 1}, committee.DecisionMsg{},
		&distrib.Hello{Name: "host-4711"}, &distrib.Hello{},
		&distrib.Welcome{Worker: 9, HeartbeatMillis: 250}, &distrib.Welcome{},
		&distrib.JobMsg{Seq: 1 << 40, Kind: "torture-trial/v1", Key: "core/chaos/n64", Payload: big[:700]}, &distrib.JobMsg{},
		&distrib.ResultMsg{Seq: 3, OK: true, Payload: big[:300], Err: "boom"}, &distrib.ResultMsg{},
		&distrib.Heartbeat{Seq: 77, Stats: []byte(`{"trials":3}`)}, &distrib.Heartbeat{},
		&distrib.Goodbye{Reason: "campaign complete"}, &distrib.Goodbye{},
	}
}

// TestBitLenMatchesEncode pins the contract the reused measuring buffer
// must keep: BitLen is the length of Encode, for every payload, in any
// order — a large payload followed by a small one must not leak its bytes
// into the smaller count.
func TestBitLenMatchesEncode(t *testing.T) {
	table := payloadTable()
	for pass := 0; pass < 2; pass++ { // the second pass measures into warm buffers
		for i, m := range table {
			if got, want := wire.BitLen(m), int64(8*len(wire.Encode(m))); got != want {
				t.Errorf("pass %d, entry %d: BitLen(%T) = %d, want %d", pass, i, m, got, want)
			}
		}
	}
}

// TestBitLenConcurrent measures from 64 goroutines at once, the way shard
// workers and parallel trials do; run it with -race -count=10.
func TestBitLenConcurrent(t *testing.T) {
	table := payloadTable()
	want := make([]int64, len(table))
	for i, m := range table {
		want[i] = int64(8 * len(wire.Encode(m)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g*31 + k*7) % len(table)
				if got := wire.BitLen(table[i]); got != want[i] {
					t.Errorf("goroutine %d: BitLen(%T) = %d, want %d", g, table[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
