// Package multivalue reduces multi-valued consensus (agreement on
// arbitrary byte strings) to the paper's binary consensus — the interface
// applications such as replicated logs actually need. The reduction is the
// classic rotating-proposer scheme, sound in the general-omission model
// because faulty processes cannot equivocate (an omission-faulty proposer's
// broadcast delivers either its true value or nothing):
//
//  0. every process broadcasts its input once; a process that receives
//     the same value from at least n-t distinct processes (counting
//     itself) "locks" it — at most one value can reach that count when
//     n > 2t, and if the non-faulty processes are unanimous they all
//     lock their common value.
//
// Then, for proposer = 0, 1, ..., 2t (at most 2t+1 iterations):
//
//  1. the proposer broadcasts its value; holders echo it (processes
//     that missed the proposal adopt the value from an echo —
//     non-equivocation makes all echoes identical);
//  2. binary consensus on "is the proposal replicated?" — a process
//     endorses only a value held by at least t+1 distinct processes
//     (itself plus echo senders), and a locked process endorses only
//     its locked value;
//  3. if it decides 1, some t+1 processes held the value at echo time,
//     so at least one never-corrupted holder rebroadcasts it, and all
//     non-faulty processes output it.
//
// The lock round buys *strong* validity: when every non-faulty process
// starts with v they all lock v, every different proposal is unanimously
// rejected (binary validity forces 0), and only v can be accepted. Without
// it, a silently corrupted proposer — corrupted on the adversary's books
// but with no message dropped — gets its minority value adopted by the
// whole system while the non-faulty inputs are unanimous; the torture
// harness found exactly that schedule (one corruption, zero omissions) and
// shrank it to a single action.
//
// The t+1-holders threshold closes the second hole the harness found: the
// adaptive adversary corrupts every holder of the proposal *during* the
// binary phase and drops their recovery broadcasts, leaving a non-faulty
// process that decided 1 with no way to learn the value. Requiring t+1
// holders before endorsing means the adversary's budget cannot cover them
// all, so decision 1 always leaves one uncorrupted holder to answer the
// recovery round. (Binary validity is evaluated over the processes still
// non-faulty at the end of the run, so decision 1 really does imply some
// surviving process endorsed.)
//
// Termination needs 2t+1 iterations in the worst case: a lock on v implies
// at least n-t processes hold v, so at most t corrupted proposers plus at
// most t non-faulty proposers holding a different (hence rejectable) value
// can fail before a non-faulty v-holder proposes. A non-faulty proposer's
// broadcast reaches every non-faulty process (n-t >= t+1 of them echo, so
// everyone passes the holder threshold), and its value matches every
// lock, so its iteration decides 1. Agreement follows from the binary
// protocol's agreement plus non-equivocation: all holders hold the same
// bytes.
//
// Every iteration occupies a fixed number of rounds (the binary consensus
// is padded to its worst-case bound), keeping all processes in lockstep
// regardless of which path the inner protocol took.
package multivalue

import (
	"bytes"
	"fmt"

	"omicon/internal/core"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// ProposalMsg carries the proposer's value.
type ProposalMsg struct {
	Value []byte
}

// AppendWire implements wire.Marshaler.
func (m ProposalMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 1)
	return wire.AppendBytes(buf, m.Value)
}

// InputMsg announces a process's input in the lock round.
type InputMsg struct {
	Value []byte
}

// AppendWire implements wire.Marshaler.
func (m InputMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 3)
	return wire.AppendBytes(buf, m.Value)
}

// EchoMsg confirms receipt of the proposal; t+1 distinct holders are
// required before a process endorses it.
type EchoMsg struct {
	Value []byte
}

// AppendWire implements wire.Marshaler.
func (m EchoMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 4)
	return wire.AppendBytes(buf, m.Value)
}

// RecoverMsg redistributes the decided value to processes that missed the
// proposal.
type RecoverMsg struct {
	Value []byte
}

// AppendWire implements wire.Marshaler.
func (m RecoverMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, 2)
	return wire.AppendBytes(buf, m.Value)
}

// BinaryConsensus is the pluggable binary layer of the reduction: any
// consensus protocol with a known worst-case round bound. Every process
// must consume at most RoundsBound rounds per call; the reduction pads to
// exactly that bound to keep the rotation in lockstep.
type BinaryConsensus struct {
	// Run decides one bit.
	Run func(env sim.Env, bit int) (int, error)
	// RoundsBound is the worst-case round count of one call.
	RoundsBound int
}

// CoreBinary wraps the paper's main algorithm (the default layer).
func CoreBinary(p core.Params) BinaryConsensus {
	return BinaryConsensus{
		Run: func(env sim.Env, bit int) (int, error) {
			return core.Consensus(env, bit, p)
		},
		RoundsBound: p.TotalRoundsBound(),
	}
}

// PhaseKingBinary wraps the deterministic baseline for budget t — a
// zero-randomness (and for small n often cheaper) alternative layer.
func PhaseKingBinary(t int) BinaryConsensus {
	return BinaryConsensus{
		Run: func(env sim.Env, bit int) (int, error) {
			return phaseking.Consensus(env, bit)
		},
		RoundsBound: phaseking.Rounds(phaseking.DefaultPhases(t)),
	}
}

// Params configures the reduction.
type Params struct {
	// Binary is the binary-consensus layer (see CoreBinary,
	// PhaseKingBinary).
	Binary BinaryConsensus
	// MaxIterations caps the proposer rotation; 0 derives 2t+1 (enough:
	// at most t faulty proposers plus at most t non-faulty proposers
	// whose value conflicts with a lock can fail).
	MaxIterations int
}

// Consensus runs the reduction; each process proposes its value and all
// non-faulty processes return the same chosen value.
func Consensus(env sim.Env, value []byte, p Params) ([]byte, error) {
	n := env.N()
	if p.Binary.Run == nil || p.Binary.RoundsBound <= 0 {
		return nil, fmt.Errorf("multivalue: no binary consensus layer configured")
	}
	iterations := p.MaxIterations
	if iterations == 0 {
		iterations = 2*env.T() + 1
	}
	id := env.ID()
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != id {
			others = append(others, i)
		}
	}
	binaryBound := p.Binary.RoundsBound

	// Lock round: announce inputs; lock a value seen from >= n-t distinct
	// processes. Processes cannot equivocate, so at most one value can
	// reach that count (n > 2t), and unanimous non-faulty inputs always do.
	closeLock := env.Span("mv-lock")
	env.Send(InputMsg{Value: value}, others)
	in := env.Exchange(nil)
	closeLock()
	counts := map[string]int{string(value): 1}
	for _, m := range in {
		if im, ok := m.Payload.(InputMsg); ok {
			counts[string(im.Value)]++
		}
	}
	// At most one value can qualify when n > 2t; pick the smallest
	// deterministically anyway so degenerate configurations cannot
	// introduce map-order nondeterminism.
	var lock []byte
	locked := false
	for v, c := range counts {
		if c >= n-env.T() && (!locked || v < string(lock)) {
			lock, locked = []byte(v), true
		}
	}

	for iter := 0; iter < iterations; iter++ {
		proposer := iter % n

		// Step 1: proposal broadcast.
		closePropose := env.Span("mv-propose")
		if id == proposer {
			env.Send(ProposalMsg{Value: value}, others)
		}
		in := env.Exchange(nil)
		closePropose()
		var proposal []byte
		have := false
		if id == proposer {
			proposal, have = value, true
		} else {
			for _, m := range in {
				if pm, ok := m.Payload.(ProposalMsg); ok && m.From == proposer {
					proposal, have = pm.Value, true
					break
				}
			}
		}

		// Step 1b: holders echo the proposal. Non-equivocation makes
		// every echo identical to the proposal, so a process that
		// missed the broadcast can adopt from any echo, and counting
		// distinct echo senders counts genuine holders.
		closeEcho := env.Span("mv-echo")
		if have {
			env.Send(EchoMsg{Value: proposal}, others)
		}
		in = env.Exchange(nil)
		closeEcho()
		holders := 0
		if have {
			holders = 1
		}
		for _, m := range in {
			if em, ok := m.Payload.(EchoMsg); ok {
				if !have {
					proposal, have = em.Value, true
				}
				holders++
			}
		}

		// Step 2: binary consensus on replication, padded to the fixed
		// worst-case bound so every process finishes the iteration at
		// the same round. Endorsing needs t+1 known holders (so one
		// survives corruption to serve the recovery round) and, for a
		// locked process, a proposal equal to its lock — which is what
		// turns unanimity into strong validity.
		bit := 0
		if have && holders > env.T() && (!locked || bytes.Equal(proposal, lock)) {
			bit = 1
		}
		closeBinary := env.Span("mv-binary")
		start := env.Round()
		d, err := p.Binary.Run(env, bit)
		if err != nil {
			closeBinary()
			return nil, err
		}
		used := env.Round() - start
		if used > binaryBound {
			closeBinary()
			return nil, fmt.Errorf("multivalue: binary consensus used %d > bound %d rounds", used, binaryBound)
		}
		sim.Idle(env, binaryBound-used)
		closeBinary()

		// Step 3: recovery round.
		closeRecover := env.Span("mv-recover")
		if d == 1 && have {
			env.Send(RecoverMsg{Value: proposal}, others)
		}
		in = env.Exchange(nil)
		closeRecover()
		if d == 1 {
			if !have {
				for _, m := range in {
					if rm, ok := m.Payload.(RecoverMsg); ok {
						proposal, have = rm.Value, true
						break
					}
				}
			}
			if !have {
				// Unreachable for non-faulty processes (decision 1
				// guarantees a never-corrupted holder whose recovery
				// broadcast is delivered), but a corrupted process can
				// have every inbound recovery message dropped — it
				// cannot tell, so fall back to its own value rather
				// than abort the run.
				return value, nil
			}
			return proposal, nil
		}
	}
	// All proposers exhausted without acceptance — unreachable at the
	// default 2t+1 iterations (at most 2t can fail), possible only under
	// a caller-supplied smaller MaxIterations: fall back to own value.
	return value, nil
}

// Protocol adapts Consensus to a sim.Protocol over indexed values:
// process p proposes values[p]; the returned decision is the index into
// the deduplicated value table, or -1 on error. Most callers should use
// Run instead.
func Run(cfg sim.Config, values [][]byte, p Params) (*Result, error) {
	if len(values) != cfg.N {
		return nil, fmt.Errorf("multivalue: %d values for n=%d", len(values), cfg.N)
	}
	out := &Result{Chosen: make([][]byte, cfg.N)}
	res, err := sim.Run(cfg, func(env sim.Env, _ int) (int, error) {
		v, err := Consensus(env, values[env.ID()], p)
		if err != nil {
			return -1, err
		}
		out.Chosen[env.ID()] = v
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	out.Sim = res
	return out, nil
}

// Result is the outcome of a multivalue execution.
type Result struct {
	// Chosen is each process's output value (nil if it failed).
	Chosen [][]byte
	// Sim carries metrics and corruption state.
	Sim *sim.Result
}

// CheckAgreement verifies all non-corrupted processes chose identical
// bytes.
func (r *Result) CheckAgreement() error {
	var ref []byte
	refSet := false
	for p, v := range r.Chosen {
		if r.Sim.Corrupted[p] {
			continue
		}
		if !refSet {
			ref, refSet = v, true
			continue
		}
		if !bytes.Equal(ref, v) {
			return fmt.Errorf("multivalue: process %d chose %q, others %q", p, v, ref)
		}
	}
	return nil
}

// CheckValidity verifies the chosen value was actually proposed by someone.
func (r *Result) CheckValidity(values [][]byte) error {
	for p, v := range r.Chosen {
		if r.Sim.Corrupted[p] {
			continue
		}
		found := false
		for _, prop := range values {
			if bytes.Equal(prop, v) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("multivalue: process %d chose unproposed value %q", p, v)
		}
	}
	return nil
}
