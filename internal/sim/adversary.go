package sim

// View is the full-information view handed to the adversary at every
// communication phase: the paper's adversary "can see the states (and thus
// also the current random bits used) of all processes, as well as the
// content of all arriving messages, at any time". Snapshots are whatever the
// protocol exposes via Env.SetSnapshot — by convention the complete local
// state relevant to the protocol's behaviour.
//
// The adversary must treat the View as read-only; the engine retains
// ownership of all slices.
//
// ALIASING CONTRACT: the View and every slice it carries (including Outbox)
// are engine-owned buffers reused across rounds. They are valid only for
// the duration of the Adversary.Step call that receives them; an adversary
// that wants to remember anything across rounds must copy the values out
// (see adversary.CoinHider for the canonical example). Retaining a View
// slice yields data from a later round, not a snapshot of this one.
type View struct {
	// Round is the 1-based round about to complete its communication
	// phase.
	Round int
	// N and T are the system size and the corruption budget.
	N, T int
	// Inputs are the processes' consensus inputs.
	Inputs []int
	// Corrupted marks processes already under adversarial control.
	Corrupted []bool
	// Terminated marks processes that have returned from their protocol.
	Terminated []bool
	// Decisions holds per-process decisions, -1 while undecided.
	Decisions []int
	// Snapshots holds the most recent per-process protocol states
	// (nil until a process publishes one).
	Snapshots []any
	// RandomCalls and RandomBits are per-process randomness consumed so
	// far, letting strategies react to random draws (the coin-hiding
	// adversary of the lower bound needs exactly this).
	RandomCalls []int64
	RandomBits  []int64
	// Outbox lists every message sent in this round's communication
	// phase, sorted by (From, To). Indices into this slice identify
	// messages in Action.Drop.
	Outbox []Message
}

// Action is the adversary's decision for one communication phase. The
// engine reads its slices before the next Step call, so an adversary may
// reuse them on that call (ScheduleAdversary does); a wrapper that keeps an
// Action longer must copy it.
type Action struct {
	// Corrupt lists processes to place under adversarial control before
	// omissions are applied this round. Corruption is permanent.
	Corrupt []int
	// Drop lists indices into View.Outbox of messages to omit. Every
	// dropped message must have a corrupted sender or receiver
	// (after applying Corrupt); the engine rejects illegal drops.
	Drop []int
}

// Adversary is an adaptive adversarial strategy: a deterministic function
// from the execution history (delivered incrementally as Views) to actions.
// Implementations may keep state across rounds.
type Adversary interface {
	// Name identifies the strategy in reports.
	Name() string
	// Step is called once per communication phase.
	Step(v *View) Action
}

// NoFaults is the benign adversary: never corrupts, never drops.
type NoFaults struct{}

// Name implements Adversary.
func (NoFaults) Name() string { return "none" }

// Step implements Adversary.
func (NoFaults) Step(*View) Action { return Action{} }

var _ Adversary = NoFaults{}
