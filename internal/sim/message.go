// Package sim implements the synchronous message-passing model of Section 2
// of Hajiaghayi, Kowalski and Olkowski (PODC 2024): n autonomous processes
// operating in lockstep rounds, each round consisting of a local computation
// phase (protocol code, including metered random-source accesses) and a
// communication phase, with an adaptive, full-information,
// computationally-unbounded adversary that may corrupt up to t processes and
// omit any subset of messages to or from corrupted processes.
//
// Each process runs its protocol as a coroutine the engine steps; the
// engine is the barrier at which rounds synchronize, the adversary acts,
// and all three complexity metrics are accounted. Executions are deterministic given (seed, protocol,
// adversary).
package sim

import (
	"fmt"

	"omicon/internal/wire"
)

// Message is a point-to-point message in flight. Payloads are Go values;
// their communication cost is the bit-length of their wire encoding,
// computed once at send time (the paper's metric counts bits sent, whether
// or not the adversary omits the message).
type Message struct {
	From, To int
	Payload  wire.Marshaler
	bits     int64
}

// Bits returns the wire size of the message in bits.
func (m Message) Bits() int64 { return m.bits }

// Endpoints implements Addressed for canonical outbox ordering.
func (m Message) Endpoints() (from, to int) { return m.From, m.To }

// Msg constructs a message; the bit cost is fixed immediately.
func Msg(from, to int, payload wire.Marshaler) Message {
	return Message{From: from, To: to, Payload: payload, bits: wire.BitLen(payload)}
}

// String renders a message for diagnostics.
func (m Message) String() string {
	return fmt.Sprintf("%d->%d (%d bits)", m.From, m.To, m.bits)
}
