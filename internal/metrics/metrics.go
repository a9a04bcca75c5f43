// Package metrics implements the three execution quality measures of
// Hajiaghayi, Kowalski and Olkowski (PODC 2024), Section 2: the number of
// rounds by termination of the last non-faulty process, the total number of
// communication bits sent in point-to-point messages, and the randomness of
// an execution measured both as the number of random bits drawn and as the
// number of accesses to a random source.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counters accumulates the cost of one execution. All methods are safe for
// concurrent use; processes on shard workers and the engine update
// counters from different goroutines.
type Counters struct {
	rounds      atomic.Int64
	messages    atomic.Int64
	commBits    atomic.Int64
	randomBits  atomic.Int64
	randomCalls atomic.Int64
	crashes     atomic.Int64
	retries     atomic.Int64
}

// Snapshot is an immutable copy of the counters, suitable for reporting.
type Snapshot struct {
	// Rounds is the number of synchronous rounds that occurred before the
	// last participating process terminated.
	Rounds int64
	// Messages is the total number of point-to-point messages sent. The
	// paper's communication lower bounds ([1], [14]) are stated in
	// messages; each message carries at least one bit.
	Messages int64
	// CommBits is the total number of bits in all sent messages,
	// accumulated at send time regardless of whether the adversary later
	// omits the message (an omitted message was still transmitted by its
	// sender, matching the paper's "bits sent" metric).
	CommBits int64
	// RandomBits is the total number of uniform random bits drawn by all
	// processes.
	RandomBits int64
	// RandomCalls is the total number of accesses to a random source,
	// the quantity R in Theorem 2 (each access may draw a finite-length
	// bit sequence).
	RandomCalls int64
	// Crashes counts process failures the transport coordinator absorbed
	// as in-model omission faults (always zero for in-memory runs).
	Crashes int64
	// Retries counts reconnect attempts: node-side re-dials and
	// coordinator-side resume adoptions after a broken connection.
	Retries int64
}

// AddRounds advances the round counter by d rounds.
func (c *Counters) AddRounds(d int64) { c.rounds.Add(d) }

// AddMessage records one sent message of the given size in bits.
func (c *Counters) AddMessage(bits int64) {
	c.messages.Add(1)
	c.commBits.Add(bits)
}

// AddMessages records a whole batch of sent messages totalling the given
// number of bits — one atomic update pair per communication phase instead of
// one per message, which is what keeps the engine's hot path off these two
// cache lines.
func (c *Counters) AddMessages(count, bits int64) {
	c.messages.Add(count)
	c.commBits.Add(bits)
}

// AddRandom records one random-source access that drew the given number of
// bits.
func (c *Counters) AddRandom(bits int64) {
	c.randomCalls.Add(1)
	c.randomBits.Add(bits)
}

// SetRandom overwrites the randomness counters with externally aggregated
// totals. The engine shards randomness accounting per rng.Source (each
// process meters its own draws without touching shared state) and folds the
// per-source sums in here at barrier and snapshot points; see
// docs/PERFORMANCE.md for the reconciliation argument.
func (c *Counters) SetRandom(calls, bits int64) {
	c.randomCalls.Store(calls)
	c.randomBits.Store(bits)
}

// AddCrash records one process failure converted into an in-model fault.
func (c *Counters) AddCrash() { c.crashes.Add(1) }

// AddRetry records one reconnect attempt (a re-dial or a resume adoption).
func (c *Counters) AddRetry() { c.retries.Add(1) }

// Snapshot returns a copy of the counters for post-execution reporting.
//
// CONTRACT (torn reads): each field is read with an independent atomic
// load, so a snapshot taken while updaters are still running can be torn
// across counters — e.g. a message counted whose bits are not yet, making
// even Check-validated invariants transiently false. Calling Snapshot
// concurrently is race-free and fine for monitoring (the live /metrics
// endpoint does exactly that), but the snapshot is exact only after the
// execution has quiesced: every goroutine updating the counters has
// returned and the caller has synchronized with it (TestSnapshotQuiesced
// pins this contract under the race detector).
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Rounds:      c.rounds.Load(),
		Messages:    c.messages.Load(),
		CommBits:    c.commBits.Load(),
		RandomBits:  c.randomBits.Load(),
		RandomCalls: c.randomCalls.Load(),
		Crashes:     c.crashes.Load(),
		Retries:     c.retries.Load(),
	}
}

// Rounds returns the current round count.
func (c *Counters) Rounds() int64 { return c.rounds.Load() }

// Add accumulates another snapshot into s, for aggregating repeated
// executions (e.g. the x round-robin phases of ParamOmissions).
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Rounds:      s.Rounds + o.Rounds,
		Messages:    s.Messages + o.Messages,
		CommBits:    s.CommBits + o.CommBits,
		RandomBits:  s.RandomBits + o.RandomBits,
		RandomCalls: s.RandomCalls + o.RandomCalls,
		Crashes:     s.Crashes + o.Crashes,
		Retries:     s.Retries + o.Retries,
	}
}

// Check validates the internal consistency of a snapshot: every counter is
// non-negative, and the randomness accounting respects the model (every
// metered random-source access draws at least one bit, so RandomBits >=
// RandomCalls). The torture oracle runs it after every trial; a failure
// means the accounting itself is broken, not the protocol.
func (s Snapshot) Check() error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"rounds", s.Rounds}, {"messages", s.Messages}, {"commBits", s.CommBits},
		{"randomBits", s.RandomBits}, {"randomCalls", s.RandomCalls},
		{"crashes", s.Crashes}, {"retries", s.Retries},
	} {
		if c.v < 0 {
			return fmt.Errorf("metrics: negative %s counter %d", c.name, c.v)
		}
	}
	if s.RandomBits < s.RandomCalls {
		return fmt.Errorf("metrics: %d random calls drew only %d bits (every access draws >= 1 bit)",
			s.RandomCalls, s.RandomBits)
	}
	if s.Messages > 0 && s.CommBits == 0 {
		return fmt.Errorf("metrics: %d messages sent but zero communication bits accounted", s.Messages)
	}
	return nil
}

// Envelope bounds a snapshot's counters; zero fields are unbounded. The
// torture harness configures per-protocol envelopes from the paper's
// complexity bounds so that a silent performance regression (or a runaway
// randomness drain) is flagged like any other invariant violation; the
// transport soak tests additionally cap crashes and retries so a flaky
// environment cannot silently absorb more failures than the scenario
// intends.
type Envelope struct {
	MaxRounds      int64
	MaxMessages    int64
	MaxCommBits    int64
	MaxRandomBits  int64
	MaxRandomCalls int64
	MaxCrashes     int64
	MaxRetries     int64
}

// Check reports the first counter exceeding the envelope.
func (e Envelope) Check(s Snapshot) error {
	for _, c := range []struct {
		name     string
		v, bound int64
	}{
		{"rounds", s.Rounds, e.MaxRounds},
		{"messages", s.Messages, e.MaxMessages},
		{"commBits", s.CommBits, e.MaxCommBits},
		{"randomBits", s.RandomBits, e.MaxRandomBits},
		{"randomCalls", s.RandomCalls, e.MaxRandomCalls},
		{"crashes", s.Crashes, e.MaxCrashes},
		{"retries", s.Retries, e.MaxRetries},
	} {
		if c.bound > 0 && c.v > c.bound {
			return fmt.Errorf("metrics: %s=%d exceeds envelope %d", c.name, c.v, c.bound)
		}
	}
	return nil
}

// String renders the snapshot as a compact single line. Crash and retry
// counts only appear when a failure actually occurred, keeping fault-free
// reports identical to the in-memory engine's. Transport reports, where
// zero crashes is a finding and not a tautology, use Verbose instead.
func (s Snapshot) String() string {
	out := fmt.Sprintf("rounds=%d messages=%d commBits=%d randomBits=%d randomCalls=%d",
		s.Rounds, s.Messages, s.CommBits, s.RandomBits, s.RandomCalls)
	if s.Crashes != 0 || s.Retries != 0 {
		out += fmt.Sprintf(" crashes=%d retries=%d", s.Crashes, s.Retries)
	}
	return out
}

// Verbose renders the snapshot with every counter, including zero crash
// and retry counts — the form transport runs report, so "no failures
// occurred" is stated rather than implied by omission.
func (s Snapshot) Verbose() string {
	return fmt.Sprintf("rounds=%d messages=%d commBits=%d randomBits=%d randomCalls=%d crashes=%d retries=%d",
		s.Rounds, s.Messages, s.CommBits, s.RandomBits, s.RandomCalls, s.Crashes, s.Retries)
}

// Delta is a cost increment attributed to one (round, span) cell of a
// traced execution: the payload of one trace span-delta event. Unlike
// Snapshot it carries no round count — the boundary event that follows
// owns the round.
type Delta struct {
	Messages    int64 `json:"messages,omitempty"`
	CommBits    int64 `json:"commBits,omitempty"`
	RandomBits  int64 `json:"randomBits,omitempty"`
	RandomCalls int64 `json:"randomCalls,omitempty"`
	Drops       int64 `json:"drops,omitempty"`
}

// Add returns the component-wise sum.
func (d Delta) Add(o Delta) Delta {
	return Delta{
		Messages:    d.Messages + o.Messages,
		CommBits:    d.CommBits + o.CommBits,
		RandomBits:  d.RandomBits + o.RandomBits,
		RandomCalls: d.RandomCalls + o.RandomCalls,
		Drops:       d.Drops + o.Drops,
	}
}

// IsZero reports whether every component is zero.
func (d Delta) IsZero() bool { return d == Delta{} }
