package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"omicon/internal/metrics"
	"omicon/internal/rng"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// errNodeAborted unwinds a protocol goroutine when the connection fails.
var errNodeAborted = errors.New("transport: node aborted")

// NodeOptions tunes a node's connection behaviour. The zero value
// reproduces the historical fail-fast node: 30s I/O deadlines, plain TCP
// dialing, and no reconnect attempts.
type NodeOptions struct {
	// Timeout is the per-frame I/O deadline (default 30s).
	Timeout time.Duration
	// Dialer opens the connection to the coordinator; the default dials
	// plain TCP. Fault-injection tests plug faultconn.Dialer in here.
	Dialer func(addr string) (net.Conn, error)
	// RetryMax bounds reconnect attempts after a broken connection
	// (initial dial and mid-run resume alike); 0 disables reconnection.
	RetryMax int
	// RetryBase is the first reconnect backoff; attempt k waits
	// RetryBase<<k scaled by a ±50% deterministic jitter (default 50ms).
	RetryBase time.Duration
}

func (o NodeOptions) withDefaults() NodeOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	return o
}

// Node implements sim.Env over a TCP connection to a Coordinator, so any
// sim.Protocol runs unchanged on the network.
type Node struct {
	id, n, t int
	addr     string
	opts     NodeOptions
	conn     net.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	registry *wire.Registry
	rand     *rng.Source
	counters *metrics.Counters
	round    int
	err      error
	batch    []batchEntry // staged since the last Exchange, one entry per target

	// jitter is a private splitmix64 stream for backoff jitter; it is
	// deliberately not the metered protocol source (reconnect timing
	// must not perturb the paper's randomness accounting).
	jitter uint64
	// pendingDeliver holds a DELIVER replayed by the coordinator during
	// a resume handshake, consumed by the next round trip instead of
	// re-sending the batch the coordinator already consumed.
	pendingDeliver []byte
}

var _ sim.Env = (*Node)(nil)

// Dial connects to the coordinator and registers as process id of n with
// fault budget t. The registry reconstructs received payloads; seed
// derives the node's metered random source. Dial uses the default
// NodeOptions (fail-fast); use DialOpts to enable reconnection.
func Dial(addr string, id, n, t int, registry *wire.Registry, seed uint64) (*Node, error) {
	return DialOpts(addr, id, n, t, registry, seed, NodeOptions{})
}

// DialOpts is Dial with explicit connection options.
func DialOpts(addr string, id, n, t int, registry *wire.Registry, seed uint64, opts NodeOptions) (*Node, error) {
	opts = opts.withDefaults()
	node := &Node{
		id: id, n: n, t: t,
		addr:     addr,
		opts:     opts,
		registry: registry,
		counters: &metrics.Counters{},
		jitter:   seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15,
	}
	node.rand = rng.New(seed, uint64(id))

	// Retries cover the whole registration, dial plus HELLO write: a
	// connection that dies between the two is indistinguishable from a
	// failed dial, and the coordinator ignores anonymous connections that
	// break before identifying themselves.
	for attempt := 0; ; attempt++ {
		conn, err := opts.Dialer(addr)
		if err == nil {
			conn.SetDeadline(time.Now().Add(opts.Timeout))
			w := bufio.NewWriter(conn)
			if err = writeFrame(w, helloBody(id)); err == nil {
				node.conn = conn
				node.r = bufio.NewReader(conn)
				node.w = w
				return node, nil
			}
			conn.Close()
			err = fmt.Errorf("hello: %w", err)
		}
		if attempt >= opts.RetryMax {
			return nil, fmt.Errorf("transport: dial: %w", err)
		}
		node.counters.AddRetry()
		node.sleepBackoff(attempt)
	}
}

// ID implements sim.Env.
func (nd *Node) ID() int { return nd.id }

// N implements sim.Env.
func (nd *Node) N() int { return nd.n }

// T implements sim.Env.
func (nd *Node) T() int { return nd.t }

// Round implements sim.Env.
func (nd *Node) Round() int { return nd.round }

// Rand implements sim.Env.
func (nd *Node) Rand() *rng.Source { return nd.rand }

// SetSnapshot implements sim.Env. Over the network the coordinator's
// adversary sees only traffic metadata, so snapshots are discarded —
// running against a weaker-information adversary only under-approximates
// the model's worst case.
func (nd *Node) SetSnapshot(any) {}

// Span implements sim.Env. Phase attribution is an engine-side concern; the
// transport coordinator traces round boundaries only, so spans are no-ops
// here like SetSnapshot.
func (nd *Node) Span(string) func() { return func() {} }

// sleepBackoff waits RetryBase<<attempt with a deterministic ±50% jitter.
func (nd *Node) sleepBackoff(attempt int) {
	if attempt > 16 {
		attempt = 16
	}
	d := nd.opts.RetryBase << uint(attempt)
	nd.jitter += 0x9e3779b97f4a7c15
	z := nd.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	time.Sleep(d/2 + time.Duration(z%uint64(d)))
}

// reconnect re-dials the coordinator after a broken connection and runs
// the resume handshake, at most RetryMax times with exponential backoff.
// It reports whether the node is connected again.
func (nd *Node) reconnect() bool {
	if nd.opts.RetryMax <= 0 {
		return false
	}
	nd.conn.Close()
	for attempt := 0; attempt < nd.opts.RetryMax; attempt++ {
		nd.counters.AddRetry()
		nd.sleepBackoff(attempt)
		conn, err := nd.opts.Dialer(nd.addr)
		if err != nil {
			continue
		}
		if nd.resume(conn) {
			return true
		}
	}
	return false
}

// resume performs the extended-HELLO handshake on a fresh connection:
// HELLO{id, completed} out, RESUME-ACK back, optionally followed by a
// replayed DELIVER (stored in pendingDeliver).
func (nd *Node) resume(conn net.Conn) bool {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	conn.SetDeadline(time.Now().Add(nd.opts.Timeout))
	if err := writeFrame(w, resumeHelloBody(nd.id, nd.round)); err != nil {
		conn.Close()
		return false
	}
	body, err := readFrame(r)
	if err != nil || len(body) == 0 || body[0] != frameResumeAck {
		conn.Close()
		return false
	}
	d := wire.NewDecoder(body[1:])
	accepted, replay := d.Bool(), d.Bool()
	if d.Finish() != nil || !accepted {
		conn.Close()
		return false
	}
	if replay {
		rb, rerr := readFrame(r)
		if rerr != nil || len(rb) == 0 || rb[0] != frameDeliver {
			conn.Close()
			return false
		}
		nd.pendingDeliver = rb
	}
	nd.conn, nd.r, nd.w = conn, r, w
	return true
}

// roundTrip sends frame and returns the coordinator's response,
// transparently reconnecting on connection failure: after a resume the
// frame is re-sent unless the handshake replayed the DELIVER the
// coordinator had already produced for it.
func (nd *Node) roundTrip(frame []byte) ([]byte, error) {
	for {
		if body := nd.pendingDeliver; body != nil {
			nd.pendingDeliver = nil
			return body, nil
		}
		nd.conn.SetDeadline(time.Now().Add(nd.opts.Timeout))
		err := writeFrame(nd.w, frame)
		if err == nil {
			var body []byte
			if body, err = readFrame(nd.r); err == nil {
				return body, nil
			}
		}
		if !nd.reconnect() {
			return nil, err
		}
	}
}

// sendFinal ships a frame with no expected response (DONE), with the same
// reconnect behaviour as roundTrip.
func (nd *Node) sendFinal(frame []byte) error {
	for {
		nd.conn.SetDeadline(time.Now().Add(nd.opts.Timeout))
		err := writeFrame(nd.w, frame)
		if err == nil {
			return nil
		}
		if !nd.reconnect() {
			return err
		}
	}
}

// Send implements sim.Env: it encodes payload's frame once and stages one
// batch entry per target for the next Exchange.
func (nd *Node) Send(payload wire.Marshaler, to []int) {
	if len(to) == 0 {
		return
	}
	typed, ok := payload.(wire.Typed)
	if !ok {
		nd.abort(fmt.Errorf("transport: payload %T lacks a wire kind", payload))
	}
	frame := wire.EncodeFrame(nil, typed)
	for _, q := range to {
		nd.batch = append(nd.batch, batchEntry{to: q, frame: frame})
	}
}

// Exchange implements sim.Env: it ships the staged batch with out's
// messages at its end, blocks for the coordinator's delivery, and
// reconstructs payloads via the registry. Transport failures unwind the
// protocol via panic(errNodeAborted), which RunProtocol recovers into an
// error.
func (nd *Node) Exchange(out []sim.Message) []sim.Message {
	for _, m := range out {
		nd.Send(m.Payload, []int{m.To})
	}
	entries := nd.batch
	nd.batch = nd.batch[:0]
	// Bits are accounted once per logical send; a retransmission after a
	// reconnect is a transport artifact, visible in Retries, not a second
	// in-model message.
	for _, e := range entries {
		nd.counters.AddMessage(int64(len(e.frame)) * 8)
	}

	body, err := nd.roundTrip(batchBody(entries))
	if err != nil {
		nd.abort(err)
	}
	if len(body) == 0 || body[0] != frameDeliver {
		nd.abort(fmt.Errorf("transport: expected DELIVER, got type %d", frameType(body)))
	}
	d := wire.NewDecoder(body[1:])
	count := d.Uvarint()
	in := make([]sim.Message, 0, count)
	for i := uint64(0); i < count; i++ {
		from := int(d.Uvarint())
		frame := d.Bytes()
		if d.Err() != nil {
			nd.abort(d.Err())
		}
		payload, perr := nd.registry.DecodeFrame(wire.NewDecoder(frame))
		if perr != nil {
			nd.abort(perr)
		}
		in = append(in, sim.Msg(from, nd.id, payload))
	}
	nd.round++
	nd.counters.AddRounds(1)
	return in
}

func frameType(body []byte) int {
	if len(body) == 0 {
		return -1
	}
	return int(body[0])
}

// abort latches the first failure and unwinds the protocol goroutine.
//
// PANIC AUDIT: this panic is reachable from network input (a malformed
// DELIVER), but it never escapes the package contract: RunProtocol — the
// only supported entry point for protocol execution — recovers the
// errNodeAborted sentinel into a returned error. Exchange cannot return
// an error itself because sim.Env.Exchange has no error result (protocol
// code is substrate-agnostic), so a panic is the only way to unwind an
// arbitrary protocol mid-round.
func (nd *Node) abort(err error) {
	if nd.err == nil {
		nd.err = err
	}
	panic(errNodeAborted)
}

// RunProtocol executes proto against this node's environment, reports the
// decision to the coordinator (DONE) and returns it.
func (nd *Node) RunProtocol(proto sim.Protocol, input int) (decision int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != any(errNodeAborted) {
				// PANIC AUDIT: unrelated panics (protocol bugs) are
				// internal invariant violations and are re-raised.
				panic(r)
			}
			decision, err = -1, nd.err
		}
	}()
	decision, err = proto(nd, input)
	if err != nil {
		return -1, err
	}
	if werr := nd.sendFinal(doneBody(decision)); werr != nil {
		return -1, werr
	}
	return decision, nil
}

// Metrics returns this node's local cost counters (messages/bits sent,
// rounds participated, randomness drawn, reconnect attempts). Randomness
// accounting is sharded in the node's rng.Source; it is folded into the
// shared counters here. Node is single-goroutine, so the source is always
// quiescent from the caller's perspective.
func (nd *Node) Metrics() metrics.Snapshot {
	rng.SyncTotals(nd.counters, nd.rand)
	return nd.counters.Snapshot()
}

// Close tears down the connection.
func (nd *Node) Close() error { return nd.conn.Close() }
