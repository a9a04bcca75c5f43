// Package benor implements a Bar-Joseph/Ben-Or-style randomized
// biased-majority consensus protocol ([10] in the paper): one all-to-all
// exchange per epoch, the same 15/30 / 18/30 / 27/30 voting thresholds as
// Algorithm 1 (Figure 3), and a shared coin built from private random bits.
//
// The protocol is the crash-model baseline of the experiment suite:
//
//   - Against crash-style adversaries it decides in O(t/sqrt(n) + log n)
//     epochs whp, the regime of [10]'s matching upper bound; the
//     coin-hiding adversary (CoinHider) drives it toward the
//     Omega(t/sqrt(n log n)) lower bound of Table 1's third row.
//   - It spends Theta(n) messages per process per epoch — quadratic
//     per-round communication, which is why the paper's grouped counting
//     structure exists.
//   - NumCoiners caps how many processes may access their random source
//     per epoch, giving the randomness-restricted protocol family that
//     the Theorem-2 trade-off experiment (E5) sweeps: fewer coiners means
//     proportionally more epochs against an adaptive adversary.
//
// Unlike Algorithm 1 this protocol has no omission-specific machinery; it
// is Monte Carlo (it may run out of epochs without deciding), which is
// exactly the contrast the reproduction needs.
package benor

import (
	"math"

	"omicon/internal/sim"
	"omicon/internal/wire"
)

// Thresholds shared with Algorithm 1 (Figure 3).
const (
	denom       = 30
	highSet     = 18
	lowSet      = 15
	decideUpper = 27
	decideLower = 3
)

// Params configures the baseline.
type Params struct {
	// MaxEpochs caps the run; 0 derives a generous default from (n, t).
	MaxEpochs int
	// NumCoiners limits how many processes may flip coins in the
	// undecided middle zone of each epoch; everyone else keeps its
	// current candidate there (a deterministic default that neither
	// helps nor hurts convergence, so progress in the ambiguous zone is
	// driven purely by the k coiners' Theta(sqrt(k)) per-epoch
	// deviation). The coiner role rotates through the id space epoch by
	// epoch, so the adversary cannot extinguish the randomness supply by
	// crashing a fixed set — it must keep paying per epoch, which is
	// what produces Theorem 2's T x R trade-off shape. 0 means "all
	// processes".
	NumCoiners int
}

// DefaultParams returns parameters sized for an (n, t) instance.
func DefaultParams(n, t int) Params {
	logN := int(math.Ceil(math.Log2(float64(n + 1))))
	factor := int(math.Ceil(float64(t)/math.Sqrt(float64(n)))) + 1
	return Params{MaxEpochs: 4*factor*logN + 8}
}

// ValueMsg is the per-epoch broadcast: the candidate bit and the decided
// flag (a decided process announces its value so laggards adopt it).
type ValueMsg struct {
	B       int
	Decided bool
}

// AppendWire implements wire.Marshaler.
func (m ValueMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(m.B))
	return wire.AppendBool(buf, m.Decided)
}

// Snapshot is the full-information state published to the adversary.
type Snapshot struct {
	Epoch   int
	B       int
	Decided bool
	Flipped bool // whether this epoch's b came from the random source
}

// CandidateBit implements the adversary observation interface.
func (s Snapshot) CandidateBit() int { return s.B }

// IsOperative implements the adversary observation interface (the baseline
// has no operative machinery; every running process counts).
func (s Snapshot) IsOperative() bool { return true }

// HasDecided implements the adversary observation interface.
func (s Snapshot) HasDecided() bool { return s.Decided }

// FlippedCoin reports whether the current candidate bit came from the
// random source, the information the coin-hiding adversary keys on.
func (s Snapshot) FlippedCoin() bool { return s.Flipped }

// Consensus runs the protocol. It is Monte Carlo: if MaxEpochs elapse
// without the safety thresholds firing, the process returns its current
// candidate (agreement may then fail — callers measure this).
func Consensus(env sim.Env, input int, p Params) (int, error) {
	if p.MaxEpochs == 0 {
		p = DefaultParams(env.N(), env.T())
	}
	id := env.ID()
	n := env.N()
	targets := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != id {
			targets = append(targets, i)
		}
	}
	b := input
	decided := false
	for epoch := 0; epoch < p.MaxEpochs; epoch++ {
		// Rotating coiner window: in epoch e, processes
		// (e*k + i) mod n for i < k hold the coin role.
		mayFlip := p.NumCoiners <= 0 || p.NumCoiners >= n ||
			((id-epoch*p.NumCoiners)%n+n)%n < p.NumCoiners
		env.SetSnapshot(Snapshot{Epoch: epoch, B: b, Decided: decided})
		env.Send(ValueMsg{B: b, Decided: decided}, targets)
		in := env.Exchange(nil)
		if decided {
			// One announcement epoch after deciding, then stop.
			return b, nil
		}
		ones, zeros := 0, 0
		if b == 1 {
			ones++
		} else {
			zeros++
		}
		adopted := -1
		for _, m := range in {
			vm, ok := m.Payload.(ValueMsg)
			if !ok {
				continue
			}
			if vm.Decided && adopted < 0 {
				adopted = vm.B
			}
			if vm.B == 1 {
				ones++
			} else {
				zeros++
			}
		}
		if adopted >= 0 {
			b = adopted
			decided = true
			continue
		}
		total := ones + zeros
		flipped := false
		switch {
		case denom*ones > highSet*total:
			b = 1
		case denom*ones < lowSet*total:
			b = 0
		case mayFlip:
			b = env.Rand().Bit()
			flipped = true
		default:
			// Non-coiners keep b in the ambiguous zone.
		}
		if denom*ones > decideUpper*total || denom*ones < decideLower*total {
			decided = true
		}
		env.SetSnapshot(Snapshot{Epoch: epoch, B: b, Decided: decided, Flipped: flipped})
	}
	return b, nil
}

// Protocol adapts Consensus to the sim.Protocol signature.
func Protocol(p Params) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		return Consensus(env, input, p)
	}
}
