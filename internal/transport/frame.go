// Package transport runs the library's protocols over real TCP
// connections: a coordinator process enforces the synchronous-round
// barrier of the model (Section 2) and optionally injects omission faults
// through the same sim.Adversary interface the simulator uses, while node
// processes implement sim.Env over the socket, so every protocol in this
// repository runs unchanged on the network.
//
// The coordinator plays the role the lockstep engine plays in-memory and
// runs the engine's own communication phase (sim.CommPhase) each round. It
// sees messages and terminations but not inputs, snapshots or randomness,
// so strategies reading those (split-vote, coin-hider) act without them,
// while structural strategies (static-crash, group-killer, eclipse,
// random-omission) work exactly as in simulation.
//
// Stream format: every frame is [length uvarint][body]; bodies begin with
// a frame type byte. Payloads travel as registry frames (wire.EncodeFrame)
// and are reconstructed with the codec registry on the receiving node.
package transport

import (
	"bufio"
	"fmt"
	"io"

	"omicon/internal/sim"
	"omicon/internal/wire"
)

// Frame types.
const (
	frameHello     = 1
	frameBatch     = 2
	frameDone      = 3
	frameDeliver   = 4
	frameResumeAck = 5
)

// maxFrameSize bounds a single frame (16 MiB) to fail fast on corruption.
const maxFrameSize = 16 << 20

// MaxFrameSize is the largest frame ReadFrame accepts. Exported for
// packages (internal/distrib) that reuse the transport's stream format.
const MaxFrameSize = maxFrameSize

// WriteFrame writes one [length uvarint][body] frame and flushes. It is
// the exported form of the framing the coordinator/node paths use,
// shared with internal/distrib's trial-dispatch protocol so both wire
// layers stay format-compatible.
func WriteFrame(w *bufio.Writer, body []byte) error { return writeFrame(w, body) }

// ReadFrame reads one [length uvarint][body] frame, enforcing
// MaxFrameSize. Exported counterpart of readFrame; see WriteFrame.
func ReadFrame(r *bufio.Reader) ([]byte, error) { return readFrame(r) }

// writeFrame writes [len][body] and flushes.
func writeFrame(w *bufio.Writer, body []byte) error {
	if _, err := w.Write(wire.AppendUvarint(nil, uint64(len(body)))); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one [len][body] frame.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var length uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if i == 10 {
			return nil, wire.ErrOverflow
		}
		length |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
	}
	if length > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// rawPayload carries an undecoded payload on the coordinator side; its
// wire size is the raw length, keeping bit accounting identical to the
// sender's.
type rawPayload []byte

// AppendWire implements wire.Marshaler.
func (p rawPayload) AppendWire(buf []byte) []byte { return append(buf, p...) }

// helloBody encodes HELLO{id}.
func helloBody(id int) []byte {
	body := []byte{frameHello}
	return wire.AppendUvarint(body, uint64(id))
}

// resumeHelloBody encodes the extended HELLO{id, completed} a node sends
// when re-dialing after a broken connection: completed is the number of
// rounds whose DELIVER the node has already received, letting the
// coordinator decide whether the last DELIVER must be replayed.
func resumeHelloBody(id, completed int) []byte {
	body := helloBody(id)
	return wire.AppendUvarint(body, uint64(completed))
}

// resumeAckBody encodes RESUME-ACK{accepted, replay}. When replay is set
// the coordinator follows the ack with a replayed DELIVER frame; when
// accepted is clear the node cannot rejoin and must abort.
func resumeAckBody(accepted, replay bool) []byte {
	body := []byte{frameResumeAck}
	body = wire.AppendBool(body, accepted)
	return wire.AppendBool(body, replay)
}

// batchBody encodes BATCH{count, (to, frame)...}. Each entry's payload is
// a registry frame.
func batchBody(entries []batchEntry) []byte {
	body := []byte{frameBatch}
	body = wire.AppendUvarint(body, uint64(len(entries)))
	for _, e := range entries {
		body = wire.AppendUvarint(body, uint64(e.to))
		body = wire.AppendBytes(body, e.frame)
	}
	return body
}

type batchEntry struct {
	to    int
	frame []byte
}

// doneBody encodes DONE{decision+1} (0 encodes "no decision").
func doneBody(decision int) []byte {
	body := []byte{frameDone}
	return wire.AppendUvarint(body, uint64(decision+1))
}

// appendDeliver appends DELIVER{count, (from, frame)...} for a carved
// inbox, whose payloads are the raw frames of the senders' batches.
func appendDeliver(body []byte, inbox []sim.Message) []byte {
	body = append(body, frameDeliver)
	body = wire.AppendUvarint(body, uint64(len(inbox)))
	for _, m := range inbox {
		body = wire.AppendUvarint(body, uint64(m.From))
		body = wire.AppendBytes(body, m.Payload.(rawPayload))
	}
	return body
}
