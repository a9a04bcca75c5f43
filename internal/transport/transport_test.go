package transport

import (
	"errors"
	"net"
	"regexp"
	"sync"
	"testing"

	"omicon/internal/adversary"
	"omicon/internal/codec"
	"omicon/internal/core"
	"omicon/internal/earlystop"
	"omicon/internal/floodset"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
)

// runNetworked spins up a coordinator plus n in-process nodes over real
// TCP loopback connections and runs proto on all of them.
func runNetworked(t *testing.T, n, tf int, inputs []int, adv sim.Adversary, proto sim.Protocol, maxRounds int) *CoordinatorResult {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	coord := NewCoordinator(n, tf, adv, maxRounds)
	resCh := make(chan *CoordinatorResult, 1)
	errCh := make(chan error, n+1)
	go func() {
		res, err := coord.Serve(ln)
		if err != nil {
			errCh <- err
			resCh <- nil
			return
		}
		resCh <- res
	}()

	reg := codec.FullRegistry()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node, err := Dial(ln.Addr().String(), id, n, tf, reg, 42)
			if err != nil {
				errCh <- err
				return
			}
			defer node.Close()
			if _, err := node.RunProtocol(proto, inputs[id]); err != nil {
				errCh <- err
			}
		}(id)
	}
	wg.Wait()
	res := <-resCh
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if res == nil {
		t.Fatal("coordinator returned no result")
	}
	return res
}

func mixed(n, ones int) []int {
	in := make([]int, n)
	for i := 0; i < ones; i++ {
		in[i] = 1
	}
	return in
}

func checkAgreement(t *testing.T, res *CoordinatorResult, corruptedOK bool) int {
	t.Helper()
	want := -1
	for p, d := range res.Decisions {
		if corruptedOK && res.Corrupted[p] {
			continue
		}
		if d < 0 {
			t.Fatalf("node %d did not decide", p)
		}
		if want == -1 {
			want = d
		} else if d != want {
			t.Fatalf("node %d decided %d, others %d", p, d, want)
		}
	}
	return want
}

func TestPhaseKingOverTCP(t *testing.T) {
	n, tf := 8, 1
	proto := func(env sim.Env, input int) (int, error) { return phaseking.Consensus(env, input) }
	res := runNetworked(t, n, tf, mixed(n, 5), nil, proto, 64)
	d := checkAgreement(t, res, false)
	if d != 0 && d != 1 {
		t.Fatalf("decision = %d", d)
	}
	if res.Metrics.Rounds != int64(phaseking.Rounds(phaseking.DefaultPhases(tf))) {
		t.Fatalf("rounds = %d", res.Metrics.Rounds)
	}
}

func TestFloodSetOverTCPWithCrashes(t *testing.T) {
	n, tf := 10, 2
	res := runNetworked(t, n, tf, mixed(n, 4), adversary.NewStaticCrash([]int{0, 1}), floodset.Protocol(), 64)
	checkAgreement(t, res, true)
	if got := res.Corrupted[0]; !got {
		t.Fatal("corruption not recorded")
	}
}

func TestEarlyStoppingOverTCP(t *testing.T) {
	n, tf := 12, 2
	res := runNetworked(t, n, tf, mixed(n, n), nil, earlystop.Protocol(), earlystop.MaxRounds(tf)+8)
	d := checkAgreement(t, res, false)
	if d != 1 {
		t.Fatalf("unanimous 1 decided %d", d)
	}
}

// TestOptimalOmissionsOverTCP runs the paper's main algorithm over real
// sockets under the group-killing adversary.
func TestOptimalOmissionsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("networked full protocol is slow; run without -short")
	}
	n, tf := 36, 1
	p, err := core.Prepare(n, tf)
	if err != nil {
		t.Fatal(err)
	}
	res := runNetworked(t, n, tf, mixed(n, n/2), adversary.NewGroupKiller(n, tf),
		core.Protocol(p), p.TotalRoundsBound()+64)
	checkAgreement(t, res, true)
}

// TestNetworkMatchesSimulator: a deterministic protocol without faults
// must produce identical decisions and round counts over TCP and in the
// in-memory engine.
func TestNetworkMatchesSimulator(t *testing.T) {
	n, tf := 8, 1
	inputs := mixed(n, 3)
	proto := func(env sim.Env, input int) (int, error) { return phaseking.Consensus(env, input) }

	netRes := runNetworked(t, n, tf, inputs, nil, proto, 64)
	simRes, err := sim.Run(sim.Config{N: n, T: tf, Inputs: inputs, Seed: 42}, proto)
	if err != nil {
		t.Fatal(err)
	}
	for p := range inputs {
		if netRes.Decisions[p] != simRes.Decisions[p] {
			t.Fatalf("node %d: tcp=%d sim=%d", p, netRes.Decisions[p], simRes.Decisions[p])
		}
	}
	if netRes.Metrics.Rounds != simRes.Metrics.Rounds {
		t.Fatalf("rounds: tcp=%d sim=%d", netRes.Metrics.Rounds, simRes.Metrics.Rounds)
	}
	if netRes.Metrics.Messages != simRes.Metrics.Messages {
		t.Fatalf("messages: tcp=%d sim=%d", netRes.Metrics.Messages, simRes.Metrics.Messages)
	}
}

// TestIllegalAdversaryRejectedOnWire: the coordinator judges adversary
// actions with the simulator's own Legality, so an illegal action aborts a
// TCP run with the error sim.Run reports for the same protocol, inputs and
// adversary. Only an omission's "(N bits)" figure may differ: a message
// costs one wire-kind byte more on the network.
func TestIllegalAdversaryRejectedOnWire(t *testing.T) {
	const n = 4
	inputs := mixed(n, 2)
	proto := func(env sim.Env, input int) (int, error) { return phaseking.Consensus(env, input) }
	bitCount := regexp.MustCompile(`\(\d+ bits\)`)
	for _, tc := range []struct {
		name     string
		tf       int
		act      sim.Action
		sentinel error // non-nil: errors.Is, and the text up to the bit count
	}{
		{"drop-out-of-range", 1, sim.Action{Drop: []int{1 << 20}}, nil},
		{"corrupt-out-of-range", 1, sim.Action{Corrupt: []int{n}}, nil},
		{"over-budget", 0, sim.Action{Corrupt: []int{0}}, nil},
		{"honest-drop", 1, sim.Action{Drop: []int{0}}, sim.ErrIllegalOmission},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := fixedAdversary{tc.act}
			_, want := sim.Run(sim.Config{N: n, T: tc.tf, Inputs: inputs, Seed: 1, Adversary: adv}, proto)
			if want == nil {
				t.Fatal("sim.Run accepted the illegal action")
			}
			got := runIllegal(t, n, tc.tf, inputs, adv, proto)
			if got == nil {
				t.Fatal("illegal adversary must abort the coordinator")
			}
			g, w := got.Error(), want.Error()
			if tc.sentinel != nil {
				if !errors.Is(got, tc.sentinel) {
					t.Fatalf("TCP error %q does not wrap %v", g, tc.sentinel)
				}
				g, w = bitCount.ReplaceAllString(g, "(N bits)"), bitCount.ReplaceAllString(w, "(N bits)")
			}
			if g != w {
				t.Fatalf("TCP error %q, sim.Run error %q", got, want)
			}
		})
	}
}

// runIllegal runs proto over TCP against an adversary the coordinator
// rejects and returns the coordinator's error; the nodes abort with it.
func runIllegal(t *testing.T, n, tf int, inputs []int, adv sim.Adversary, proto sim.Protocol) error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(n, tf, adv, 16)
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.Serve(ln)
		errCh <- err
	}()
	reg := codec.FullRegistry()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node, err := Dial(ln.Addr().String(), id, n, tf, reg, 1)
			if err != nil {
				return
			}
			defer node.Close()
			node.RunProtocol(proto, inputs[id]) // aborts when the coordinator dies
		}(id)
	}
	err = <-errCh
	wg.Wait()
	return err
}

// fixedAdversary takes the same action every round.
type fixedAdversary struct{ act sim.Action }

func (fixedAdversary) Name() string                { return "fixed" }
func (a fixedAdversary) Step(*sim.View) sim.Action { return a.act }

// inputsProbe counts its steps and records whether any View carried inputs.
type inputsProbe struct {
	steps     int
	sawInputs bool
}

func (*inputsProbe) Name() string { return "inputs-probe" }
func (a *inputsProbe) Step(v *sim.View) sim.Action {
	a.steps++
	a.sawInputs = a.sawInputs || v.Inputs != nil
	return sim.Action{}
}

// TestViewOverTCPHasNoInputs: inputs are node-local, like snapshots and
// randomness, so the coordinator's View must leave them nil rather than
// hand the adversary made-up ones.
func TestViewOverTCPHasNoInputs(t *testing.T) {
	const n = 4
	probe := &inputsProbe{}
	proto := func(env sim.Env, input int) (int, error) { return phaseking.Consensus(env, input) }
	runNetworked(t, n, 1, mixed(n, 2), probe, proto, 64)
	if probe.steps == 0 {
		t.Fatal("the adversary was never consulted")
	}
	if probe.sawInputs {
		t.Fatal("a TCP View carried inputs")
	}
}
