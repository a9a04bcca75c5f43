package codec

import (
	"reflect"
	"testing"
	"testing/quick"

	"omicon/internal/benor"
	"omicon/internal/committee"
	"omicon/internal/core"
	"omicon/internal/dolevstrong"
	"omicon/internal/earlystop"
	"omicon/internal/floodset"
	"omicon/internal/multivalue"
	"omicon/internal/paramomissions"
	"omicon/internal/phaseking"
	"omicon/internal/wire"
)

// TestEveryPayloadRoundTrips encodes and decodes one representative of
// every payload type through the full registry and requires deep
// equality — the contract the TCP transport depends on.
func TestEveryPayloadRoundTrips(t *testing.T) {
	reg := FullRegistry()
	payloads := []wire.Typed{
		core.SourceCountsMsg{Ones: 3, Zeros: 9},
		core.AckMsg{},
		core.MergedCountsMsg{HasLeft: true, LeftOnes: 1, LeftZeros: 2, HasRight: true, RightOnes: 3, RightZeros: 4},
		core.MergedCountsMsg{HasRight: true, RightOnes: 7},
		core.MergedCountsMsg{},
		core.SpreadMsg{Entries: []core.GroupCount{{Group: 1, Ones: 2, Zeros: 3}, {Group: 4, Ones: 5, Zeros: 6}}},
		core.SpreadMsg{},
		core.DecisionBcastMsg{B: 1},
		core.FinalDecisionMsg{B: 0},
		phaseking.ValueMsg{V: 1},
		phaseking.KingMsg{V: 0},
		benor.ValueMsg{B: 1, Decided: true},
		floodset.SetMsg{Has0: true, Has1: false},
		paramomissions.FloodMsg{Has: true, B: 1},
		paramomissions.FloodMsg{},
		paramomissions.SafetyMsg{B: 1},
		multivalue.ProposalMsg{Value: []byte("proposal")},
		multivalue.RecoverMsg{Value: nil},
		multivalue.InputMsg{Value: []byte("input")},
		multivalue.EchoMsg{Value: []byte("echo")},
		committee.InputMsg{B: 1},
		committee.VoteMsg{B: 0},
		committee.DecisionMsg{B: 1},
		dolevstrong.RelayMsg{Sender: 2, V: 1, Chain: []int{2, 5, 7}},
		earlystop.PrefMsg{V: 1},
		earlystop.KingMsg{V: 0},
		earlystop.DecidedMsg{V: 1},
	}
	kinds := map[uint64]bool{}
	for _, p := range payloads {
		kinds[p.WireKind()] = true
		got, err := reg.RoundTrip(p)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if !equalPayload(p, got) {
			t.Fatalf("%T: round trip %+v -> %+v", p, p, got)
		}
	}
	if len(kinds) < 20 {
		t.Fatalf("only %d distinct kinds exercised", len(kinds))
	}
}

// equalPayload compares payloads treating nil and empty slices as equal
// (wire encodings cannot distinguish them).
func equalPayload(a, b wire.Typed) bool {
	switch av := a.(type) {
	case multivalue.ProposalMsg:
		bv, ok := b.(multivalue.ProposalMsg)
		return ok && string(av.Value) == string(bv.Value)
	case multivalue.RecoverMsg:
		bv, ok := b.(multivalue.RecoverMsg)
		return ok && string(av.Value) == string(bv.Value)
	case multivalue.InputMsg:
		bv, ok := b.(multivalue.InputMsg)
		return ok && string(av.Value) == string(bv.Value)
	case multivalue.EchoMsg:
		bv, ok := b.(multivalue.EchoMsg)
		return ok && string(av.Value) == string(bv.Value)
	case dolevstrong.RelayMsg:
		bv, ok := b.(dolevstrong.RelayMsg)
		if !ok || av.Sender != bv.Sender || av.V != bv.V || len(av.Chain) != len(bv.Chain) {
			return false
		}
		for i := range av.Chain {
			if av.Chain[i] != bv.Chain[i] {
				return false
			}
		}
		return true
	case core.SpreadMsg:
		bv, ok := b.(core.SpreadMsg)
		if !ok || len(av.Entries) != len(bv.Entries) {
			return false
		}
		for i := range av.Entries {
			if av.Entries[i] != bv.Entries[i] {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

// TestGarbageFramesError: unknown kinds and truncated frames must error,
// never panic.
func TestGarbageFramesError(t *testing.T) {
	reg := FullRegistry()
	cases := [][]byte{
		{},
		{0xff, 0x01},       // unknown kind
		{byte(0x10)},       // core source counts, truncated
		{byte(0x10), 0x01}, // wrong internal tag
	}
	for _, buf := range cases {
		if _, err := reg.DecodeFrame(wire.NewDecoder(buf)); err == nil {
			t.Fatalf("frame %v: expected error", buf)
		}
	}
}

// TestDuplicateKindPanics pins the registry's startup check.
func TestDuplicateKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r := wire.NewRegistry()
	fn := func(d *wire.Decoder) (wire.Typed, error) { return core.AckMsg{}, nil }
	r.Register(1, fn)
	r.Register(1, fn)
}

// TestSourceCountsRoundTripProperty quick-checks a representative numeric
// payload across the value space.
func TestSourceCountsRoundTripProperty(t *testing.T) {
	reg := FullRegistry()
	f := func(ones, zeros uint16) bool {
		p := core.SourceCountsMsg{Ones: int(ones), Zeros: int(zeros)}
		got, err := reg.RoundTrip(p)
		return err == nil && got == wire.Typed(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestProposalRoundTripProperty quick-checks the byte-string payload.
func TestProposalRoundTripProperty(t *testing.T) {
	reg := FullRegistry()
	f := func(v []byte) bool {
		p := multivalue.ProposalMsg{Value: v}
		got, err := reg.RoundTrip(p)
		if err != nil {
			return false
		}
		gp, ok := got.(multivalue.ProposalMsg)
		return ok && string(gp.Value) == string(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
