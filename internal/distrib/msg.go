// Package distrib distributes campaign trials over worker processes: a
// coordinator-side Pool dispatches serialized jobs (torture trials,
// Theorem-1 sweep samples) to workers speaking the transport package's
// length-framed stream format over TCP, and commits results through the
// caller's existing strict-serial commit path — so a distributed
// campaign's report, log, corpus and journal are byte-identical to an
// in-process run's at any worker count.
//
// Robustness model (docs/DISTRIBUTED.md):
//
//   - Workers heartbeat at the interval the coordinator announces in
//     WELCOME; the coordinator reads under a deadline of several missed
//     beats, so a crashed or wedged worker is detected without a
//     separate failure detector.
//   - A job in flight on a dead worker is deterministically re-dispatched
//     (the job, not a partial result, is the unit of recovery); results
//     from superseded dispatches are dropped by sequence number, and the
//     campaign journal makes a re-run trial commit exactly once.
//   - A job that kills PoisonK workers in a row is quarantined: executed
//     in-process through the same executor registry and flagged, so one
//     poison trial cannot crash-loop the fleet.
//   - When no workers are connected, the pool degrades gracefully to
//     in-process execution after DegradeAfter, and returns to remote
//     dispatch as soon as a worker (re)joins.
//
// Wire protocol: frames use transport.WriteFrame/ReadFrame framing; each
// body is a wire.EncodeFrame registry frame. Kinds 0x70-0x75 (ranges
// below 0x70 belong to the protocol payload codecs; see
// internal/codec).
package distrib

import (
	"omicon/internal/wire"
)

// Wire kinds of the dispatch protocol.
const (
	kindHello     = 0x70 // worker -> coordinator: join
	kindWelcome   = 0x71 // coordinator -> worker: id + heartbeat interval
	kindJob       = 0x72 // coordinator -> worker: one serialized job
	kindResult    = 0x73 // worker -> coordinator: job outcome
	kindHeartbeat = 0x74 // worker -> coordinator: liveness beat
	kindGoodbye   = 0x75 // coordinator -> worker: clean shutdown
)

// Hello is the worker's join frame.
type Hello struct {
	// Name identifies the worker in diagnostics (host-pid by default).
	Name string
}

// AppendWire implements wire.Marshaler.
func (m *Hello) AppendWire(buf []byte) []byte { return wire.AppendBytes(buf, []byte(m.Name)) }

// WireKind implements wire.Typed.
func (m *Hello) WireKind() uint64 { return kindHello }

// Welcome acknowledges a join: the assigned worker id and the heartbeat
// interval the worker must beat at (the coordinator's read deadline is a
// small multiple of it).
type Welcome struct {
	Worker          uint64
	HeartbeatMillis uint64
}

// AppendWire implements wire.Marshaler.
func (m *Welcome) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Worker)
	return wire.AppendUvarint(buf, m.HeartbeatMillis)
}

// WireKind implements wire.Typed.
func (m *Welcome) WireKind() uint64 { return kindWelcome }

// JobMsg carries one serialized job to a worker. Seq is unique per
// worker connection and matches the eventual ResultMsg; Kind selects the
// executor (e.g. torture-trial/v1); Key is the human-readable dispatch
// identity used in diagnostics; Payload is the executor's serialized
// input.
type JobMsg struct {
	Seq     uint64
	Kind    string
	Key     string
	Payload []byte
}

// AppendWire implements wire.Marshaler.
func (m *JobMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Seq)
	buf = wire.AppendBytes(buf, []byte(m.Kind))
	buf = wire.AppendBytes(buf, []byte(m.Key))
	return wire.AppendBytes(buf, m.Payload)
}

// WireKind implements wire.Typed.
func (m *JobMsg) WireKind() uint64 { return kindJob }

// ResultMsg reports one job's outcome. OK distinguishes a successful
// Payload from an executor error carried in Err.
type ResultMsg struct {
	Seq     uint64
	OK      bool
	Payload []byte
	Err     string
}

// AppendWire implements wire.Marshaler.
func (m *ResultMsg) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Seq)
	buf = wire.AppendBool(buf, m.OK)
	buf = wire.AppendBytes(buf, m.Payload)
	return wire.AppendBytes(buf, []byte(m.Err))
}

// WireKind implements wire.Typed.
func (m *ResultMsg) WireKind() uint64 { return kindResult }

// Heartbeat is the worker's periodic liveness beat; Seq increments per
// beat (diagnostic only — detection is purely deadline-based). Stats
// optionally piggybacks the worker's local telemetry snapshot (a JSON
// telemetry.Snapshot) so the coordinator's /statusz can show it in the
// worker's row without a second channel; empty means no telemetry.
type Heartbeat struct {
	Seq   uint64
	Stats []byte
}

// AppendWire implements wire.Marshaler.
func (m *Heartbeat) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Seq)
	return wire.AppendBytes(buf, m.Stats)
}

// WireKind implements wire.Typed.
func (m *Heartbeat) WireKind() uint64 { return kindHeartbeat }

// Goodbye tells a worker to exit cleanly (campaign complete).
type Goodbye struct {
	Reason string
}

// AppendWire implements wire.Marshaler.
func (m *Goodbye) AppendWire(buf []byte) []byte { return wire.AppendBytes(buf, []byte(m.Reason)) }

// WireKind implements wire.Typed.
func (m *Goodbye) WireKind() uint64 { return kindGoodbye }

// Registry returns the dispatch protocol's wire registry.
func Registry() *wire.Registry {
	r := wire.NewRegistry()
	r.Register(kindHello, func(d *wire.Decoder) (wire.Typed, error) {
		m := &Hello{Name: string(d.Bytes())}
		return m, d.Err()
	})
	r.Register(kindWelcome, func(d *wire.Decoder) (wire.Typed, error) {
		m := &Welcome{Worker: d.Uvarint(), HeartbeatMillis: d.Uvarint()}
		return m, d.Err()
	})
	r.Register(kindJob, func(d *wire.Decoder) (wire.Typed, error) {
		m := &JobMsg{Seq: d.Uvarint(), Kind: string(d.Bytes()), Key: string(d.Bytes()), Payload: d.Bytes()}
		return m, d.Err()
	})
	r.Register(kindResult, func(d *wire.Decoder) (wire.Typed, error) {
		m := &ResultMsg{Seq: d.Uvarint(), OK: d.Bool(), Payload: d.Bytes(), Err: string(d.Bytes())}
		return m, d.Err()
	})
	r.Register(kindHeartbeat, func(d *wire.Decoder) (wire.Typed, error) {
		m := &Heartbeat{Seq: d.Uvarint(), Stats: d.Bytes()}
		return m, d.Err()
	})
	r.Register(kindGoodbye, func(d *wire.Decoder) (wire.Typed, error) {
		m := &Goodbye{Reason: string(d.Bytes())}
		return m, d.Err()
	})
	return r
}
