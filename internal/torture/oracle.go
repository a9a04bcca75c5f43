package torture

import (
	"errors"
	"fmt"

	"omicon/internal/metrics"
	"omicon/internal/sim"
)

// Kind classifies an invariant violation.
type Kind string

const (
	// KindAgreement: two non-faulty processes decided different values.
	KindAgreement Kind = "agreement"
	// KindValidity: a decision value was nobody's input, or differed from
	// a unanimous non-faulty input.
	KindValidity Kind = "validity"
	// KindTermination: a non-faulty process ran past the protocol's proven
	// round bound (or the engine hit its hard cap).
	KindTermination Kind = "termination"
	// KindLegality: the adversary stepped outside the omission model —
	// over budget, or a drop between two honest processes.
	KindLegality Kind = "legality"
	// KindMetrics: the execution's cost accounting is inconsistent or
	// escaped its complexity envelope.
	KindMetrics Kind = "metrics"
	// KindTranscript: the recorded transcript disagrees with the result
	// (counter mismatches, non-monotone progress, re-corruptions).
	KindTranscript Kind = "transcript"
	// KindDeterminism: re-running the same seed produced a different
	// transcript.
	KindDeterminism Kind = "determinism"
	// KindProtocol: a process returned an internal error.
	KindProtocol Kind = "protocol"
)

// Violation is one oracle finding.
type Violation struct {
	Kind   Kind   `json:"kind"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.Detail) }

// CheckInput is everything the oracle inspects about one finished trial.
type CheckInput struct {
	N, T int
	// RoundBound is the protocol's proven termination bound for this
	// instance; non-faulty processes must finish within it.
	RoundBound int
	// Envelope optionally caps the trial's cost metrics (zero fields are
	// unbounded); MaxRounds is set automatically from RoundBound.
	Envelope metrics.Envelope
	// Properties is the protocol's declared guarantee set
	// (ProtoSpec.Properties): WHP-strength properties downgrade their
	// violations to counted Monte-Carlo misses. The zero value checks
	// every guarantee deterministically.
	Properties PropertySet
	Result     *sim.Result
	RunErr     error
	Transcript *sim.Transcript
}

// Verdict is the oracle's judgment of one trial.
type Verdict struct {
	Violations []Violation
	// MonteCarloMisses counts failures of WHP-strength properties; they
	// are measured, not gating.
	MonteCarloMisses int
}

// Failed reports whether any gating violation was found.
func (v Verdict) Failed() bool { return len(v.Violations) > 0 }

// Has reports whether the verdict contains a violation of kind k.
func (v Verdict) Has(k Kind) bool {
	for _, viol := range v.Violations {
		if viol.Kind == k {
			return true
		}
	}
	return false
}

func (v *Verdict) add(k Kind, format string, args ...any) {
	v.Violations = append(v.Violations, Violation{Kind: k, Detail: fmt.Sprintf(format, args...)})
}

// Check runs every invariant against one finished trial. Which findings
// gate and which are counted follows the protocol's declared PropertySet;
// legality, metrics, transcript and determinism findings always gate —
// they are properties of the model and the harness, not of the protocol.
func Check(in CheckInput) Verdict {
	var verdict Verdict
	if in.RunErr != nil {
		switch {
		case errors.Is(in.RunErr, sim.ErrBudget), errors.Is(in.RunErr, sim.ErrIllegalOmission):
			verdict.add(KindLegality, "engine aborted: %v", in.RunErr)
		case errors.Is(in.RunErr, sim.ErrMaxRounds):
			verdict.add(KindTermination, "engine aborted: %v", in.RunErr)
		default:
			verdict.add(KindProtocol, "run failed: %v", in.RunErr)
		}
		// The execution was truncated mid-round; the consensus and
		// accounting invariants below are only meaningful for runs that
		// finished, so the classification above is the whole verdict.
		return verdict
	}
	res := in.Result
	if res == nil {
		verdict.add(KindProtocol, "run returned neither result nor error")
		return verdict
	}

	// Consensus properties over non-faulty processes, each at its
	// declared strength.
	addAt := func(s Strength, k Kind, format string, args ...any) {
		if s.gating() {
			verdict.add(k, format, args...)
		} else {
			verdict.MonteCarloMisses++
		}
	}
	if err := res.CheckAgreement(); err != nil {
		addAt(in.Properties.Agreement, KindAgreement, "%v", err)
	}
	if err := res.CheckValidity(); err != nil {
		addAt(in.Properties.Validity, KindValidity, "%v", err)
	}
	for p := 0; p < in.N; p++ {
		if !res.Corrupted[p] && res.Decisions[p] < 0 {
			addAt(in.Properties.Termination, KindTermination, "non-faulty process %d never decided", p)
			break
		}
	}
	if in.RoundBound > 0 && res.RoundsNonFaulty() > in.RoundBound {
		addAt(in.Properties.Termination, KindTermination, "non-faulty processes ran %d rounds, bound is %d",
			res.RoundsNonFaulty(), in.RoundBound)
	}

	// Adversary budget, independent of the engine's own runtime check.
	if res.NumCorrupted() > in.T {
		verdict.add(KindLegality, "%d corruptions exceed budget t=%d", res.NumCorrupted(), in.T)
	}

	// Cost accounting sanity and complexity envelope.
	if err := res.Metrics.Check(); err != nil {
		verdict.add(KindMetrics, "%v", err)
	}
	env := in.Envelope
	if env.MaxRounds == 0 && in.RoundBound > 0 {
		// Corrupted processes may legitimately run to the engine cap,
		// which sits a fixed slack above the bound.
		env.MaxRounds = int64(in.RoundBound) + 64
	}
	if err := env.Check(res.Metrics); err != nil {
		verdict.add(KindMetrics, "%v", err)
	}

	if in.Transcript != nil {
		checkTranscript(&verdict, in, res)
	}
	return verdict
}

// checkTranscript cross-validates the recorded history against the result:
// counters must reconcile, progress must be monotone, and the recorded
// schedule must itself be legal.
func checkTranscript(verdict *Verdict, in CheckInput, res *sim.Result) {
	tr := in.Transcript
	if int64(len(tr.Rounds)) != res.Metrics.Rounds {
		verdict.add(KindTranscript, "transcript has %d rounds, metrics counted %d",
			len(tr.Rounds), res.Metrics.Rounds)
		return
	}
	var msgs, bits int64
	decided, terminated := 0, 0
	seen := make(map[int]bool)
	for i, r := range tr.Rounds {
		if r.Round != i+1 {
			verdict.add(KindTranscript, "round record %d labeled %d", i, r.Round)
			return
		}
		if r.Messages < 0 || r.Bits < 0 || r.Dropped < 0 || r.Dropped > r.Messages {
			verdict.add(KindTranscript, "round %d: impossible counters messages=%d bits=%d dropped=%d",
				r.Round, r.Messages, r.Bits, r.Dropped)
			return
		}
		if tr.Version >= 1 && len(r.Drops) != r.Dropped {
			verdict.add(KindTranscript, "round %d: %d drop endpoints recorded for %d drops",
				r.Round, len(r.Drops), r.Dropped)
			return
		}
		for _, p := range r.Corrupted {
			if p < 0 || p >= in.N {
				verdict.add(KindTranscript, "round %d: corrupted invalid process %d", r.Round, p)
				return
			}
			if seen[p] {
				verdict.add(KindTranscript, "round %d: process %d corrupted twice", r.Round, p)
				return
			}
			seen[p] = true
		}
		if r.Decided < decided || r.Terminated < terminated || r.Decided > in.N || r.Terminated > in.N {
			verdict.add(KindTranscript, "round %d: progress not monotone (decided %d->%d, terminated %d->%d)",
				r.Round, decided, r.Decided, terminated, r.Terminated)
			return
		}
		decided, terminated = r.Decided, r.Terminated
		msgs += int64(r.Messages)
		bits += r.Bits
	}
	if len(seen) > in.T {
		verdict.add(KindTranscript, "transcript records %d corruptions, budget t=%d", len(seen), in.T)
	}
	if msgs != res.Metrics.Messages || bits != res.Metrics.CommBits {
		verdict.add(KindTranscript, "transcript sums messages=%d bits=%d, metrics counted %d/%d",
			msgs, bits, res.Metrics.Messages, res.Metrics.CommBits)
	}
}
