package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"omicon/internal/metrics"
	"omicon/internal/sim"
	"omicon/internal/trace"
	"omicon/internal/wire"
)

// Policy selects how the coordinator reacts to a node failing mid-run
// (broken connection, I/O timeout, or protocol-violating frame).
type Policy int

const (
	// FailFast aborts the whole run on the first node failure — the
	// historical behaviour, and the right one when any failure indicates
	// a harness bug rather than an environment fault.
	FailFast Policy = iota
	// FailAsOmission converts a node failure into exactly the fault
	// class the algorithms tolerate: the node is marked crashed and
	// corrupted (consuming adversary budget), its pending outbox is
	// dropped, its inbox is discarded, and the barrier continues with
	// the survivors. The run still aborts when crashes push the number
	// of corrupted processes beyond the fault budget t.
	FailAsOmission
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case FailAsOmission:
		return "omission"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "failfast", "fail-fast":
		return FailFast, nil
	case "omission", "fail-as-omission":
		return FailAsOmission, nil
	default:
		return FailFast, fmt.Errorf("transport: unknown policy %q (failfast | omission)", s)
	}
}

// Options tunes the coordinator's failure handling. The zero value
// reproduces the historical coordinator: FailFast, 30s I/O deadlines, 30s
// accept window, no reconnection.
type Options struct {
	// Policy selects the reaction to node failures mid-run.
	Policy Policy
	// IOTimeout is the per-frame read/write deadline (default 30s).
	IOTimeout time.Duration
	// AcceptTimeout bounds the wait for all n HELLOs at startup
	// (default 30s); on expiry Serve fails naming the missing node ids.
	AcceptTimeout time.Duration
	// ReconnectGrace is how long a node whose connection broke may take
	// to re-dial and resume before the failure is handled under Policy;
	// 0 disables resume. Resume works under both policies — the policy
	// only governs what happens when recovery fails.
	ReconnectGrace time.Duration
	// MaxCrashes optionally caps tolerated crashes below the fault
	// budget t; 0 means the cap is t itself (crashed processes count as
	// corrupted, so the budget check enforces it).
	MaxCrashes int
	// Trace receives structured events for the run: round boundaries with
	// wire-level cost deltas, crashes, resume adoptions, decisions. Nil
	// disables tracing.
	Trace *trace.Tracer
	// DebugAddr, when non-empty, serves /statusz (the wire counters and
	// live gauges as its metrics) and /debug/pprof on the given listen
	// address for the duration of Serve ("127.0.0.1:0" picks a free port;
	// see DebugListenAddr).
	DebugAddr string
	// Ctx, when non-nil, cancels Serve: the accept phase unblocks as soon
	// as the context is done and the round loop stops at the next round
	// boundary. Nil means Serve runs to completion or failure as before.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.AcceptTimeout <= 0 {
		o.AcceptTimeout = 30 * time.Second
	}
	return o
}

// Coordinator enforces the synchronous-round barrier over TCP and applies
// the configured adversary to each communication phase.
type Coordinator struct {
	n, t      int
	adversary sim.Adversary
	maxRounds int
	opts      Options

	counters  metrics.Counters
	crashed   []bool
	decisions []int
	outcomes  []sim.Outcome
	failures  []sim.FailureEvent

	active    []bool
	numActive int

	// phase is the simulator's own communication phase, run once per
	// round on outbox, the sends gathered from the nodes' batches; active
	// and decisions are the per-process state it reads.
	phase  sim.CommPhase
	outbox []sim.Message

	// Resume bookkeeping: the round and body of the last DELIVER
	// produced for each node, kept so a reconnecting node that missed
	// it can have it replayed.
	lastDeliverRound []int
	lastDeliverBody  [][]byte

	connCh     chan helloConn
	acceptDone chan struct{}
	parked     map[int]*helloConn
	ctx        context.Context

	// Trace bookkeeping: the counter snapshot at the previous round
	// boundary, so round-end events carry exact wire-cost deltas.
	lastTraced metrics.Snapshot

	// Live gauges for the debug endpoint, updated at barriers so the HTTP
	// handler never touches the Serve goroutine's plain slices.
	liveRound     atomic.Int64
	liveActive    atomic.Int64
	liveCorrupted atomic.Int64
	debugAddr     atomic.Pointer[string]
}

// CoordinatorResult reports one networked execution.
type CoordinatorResult struct {
	// Decisions holds each node's reported decision (-1 = none).
	Decisions []int
	// Corrupted marks the processes the adversary took over, including
	// crashed processes (a crash is synthesized as a corruption).
	Corrupted []bool
	// Crashed marks the processes whose real-world failure was absorbed
	// as an in-model fault under FailAsOmission.
	Crashed []bool
	// Outcomes classifies how each node ended the run.
	Outcomes []sim.Outcome
	// Failures is the log of observed process failures, in order.
	Failures []sim.FailureEvent
	// Metrics aggregates rounds/messages/bits as observed on the wire
	// (randomness is node-local and not visible to the coordinator).
	Metrics metrics.Snapshot
}

// CheckAgreement verifies Agreement and Termination over the surviving
// non-corrupted nodes (crashed nodes are corrupted by construction, so
// they are exempt, exactly as the model exempts faulty processes).
func (r *CoordinatorResult) CheckAgreement() error {
	want := -1
	for p, d := range r.Decisions {
		if r.Corrupted[p] {
			continue
		}
		if d < 0 {
			return fmt.Errorf("transport: surviving node %d did not decide", p)
		}
		if want == -1 {
			want = d
		} else if d != want {
			return fmt.Errorf("transport: surviving nodes disagree: %d decided %d, expected %d", p, d, want)
		}
	}
	return nil
}

// NewCoordinator configures a barrier for n nodes and fault budget t.
// adv may be nil (fault-free); maxRounds guards runaway executions. The
// coordinator starts with the zero Options (fail-fast); use SetOptions to
// select FailAsOmission and reconnection.
func NewCoordinator(n, t int, adv sim.Adversary, maxRounds int) *Coordinator {
	if adv == nil {
		adv = sim.NoFaults{}
	}
	if maxRounds <= 0 {
		maxRounds = 60*n + 4096
	}
	c := &Coordinator{
		n: n, t: t,
		adversary:        adv,
		maxRounds:        maxRounds,
		opts:             Options{}.withDefaults(),
		crashed:          make([]bool, n),
		decisions:        make([]int, n),
		outcomes:         make([]sim.Outcome, n),
		active:           make([]bool, n),
		numActive:        n,
		lastDeliverRound: make([]int, n),
		lastDeliverBody:  make([][]byte, n),
	}
	for i := range c.decisions {
		c.decisions[i] = -1
		c.active[i] = true
	}
	return c
}

// SetOptions replaces the coordinator's failure-handling options; zero
// fields select defaults. Call before Serve.
func (c *Coordinator) SetOptions(o Options) { c.opts = o.withDefaults() }

type nodeConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// helloConn is one parsed HELLO handed from the accept loop to Serve.
type helloConn struct {
	nc        *nodeConn
	id        int
	completed int
	resume    bool
	err       error
	// ioErr marks err as a plain connection failure (EOF, reset, timeout)
	// rather than a protocol violation. An anonymous connection that dies
	// before identifying itself cannot be attributed to any node, so the
	// accept phase drops it and keeps waiting for a re-dial; violations
	// (bad frame, oversized, invalid id) still abort the run.
	ioErr bool
}

// Serve accepts n node connections on ln and runs the barrier until every
// node reports DONE or crashes. It closes all node connections before
// returning; the caller owns ln. On error the returned result still
// carries per-node outcomes and the failure log observed so far.
func (c *Coordinator) Serve(ln net.Listener) (*CoordinatorResult, error) {
	c.phase.Init(c.n, c.t, 1, c.adversary, c.opts.Trace, &c.counters, c.active, c.decisions)
	conns := make([]*nodeConn, c.n)
	c.connCh = make(chan helloConn, 2*c.n+4)
	c.acceptDone = make(chan struct{})
	c.parked = make(map[int]*helloConn)
	c.ctx = c.opts.Ctx
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	defer func() {
		close(c.acceptDone)
		for _, nc := range conns {
			if nc != nil {
				nc.conn.Close()
			}
		}
		for _, hc := range c.parked {
			hc.nc.conn.Close()
		}
	}()
	go c.acceptLoop(ln)
	c.liveActive.Store(int64(c.n))

	if c.opts.DebugAddr != "" {
		srv, addr, err := c.startDebugServer(c.opts.DebugAddr)
		if err != nil {
			return c.result(), err
		}
		c.debugAddr.Store(&addr)
		defer srv.Close()
	}
	c.opts.Trace.ExecStart(fmt.Sprintf("transport n=%d t=%d adversary=%s policy=%s",
		c.n, c.t, c.adversary.Name(), c.opts.Policy), 0)

	if err := c.awaitHellos(conns); err != nil {
		c.traceFinish()
		return c.result(), err
	}
	err := c.runRounds(conns)
	c.traceFinish()
	return c.result(), err
}

// DebugListenAddr returns the bound address of the debug HTTP server, or ""
// while no server is running. It resolves ":0"-style DebugAddr values to
// the actual port.
func (c *Coordinator) DebugListenAddr() string {
	if p := c.debugAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// traceFinish closes the trace segment: residual wire cost accrued since
// the last round boundary (e.g. a round aborted mid-gather) goes into one
// post event, then exec-end carries the final snapshot. Crash and retry
// totals are carried by their own 1:1 events, never by deltas.
func (c *Coordinator) traceFinish() {
	if !c.opts.Trace.Enabled() {
		return
	}
	final := c.counters.Snapshot()
	c.opts.Trace.Emit(trace.Event{
		Kind: trace.KindPost, Round: int(c.liveRound.Load()), Proc: -1,
		Rounds:   final.Rounds - c.lastTraced.Rounds,
		Messages: final.Messages - c.lastTraced.Messages,
		CommBits: final.CommBits - c.lastTraced.CommBits,
	})
	c.lastTraced = final
	c.opts.Trace.ExecEnd(final)
}

// acceptLoop accepts connections for the whole run (initial HELLOs and
// mid-run resumes) and parses each HELLO in its own goroutine. It polls
// a short listener deadline where supported so it exits promptly once
// Serve returns, without requiring the caller to close ln.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	type deadliner interface{ SetDeadline(time.Time) error }
	d, polls := ln.(deadliner)
	if polls {
		defer d.SetDeadline(time.Time{})
	}
	for {
		if polls {
			d.SetDeadline(time.Now().Add(250 * time.Millisecond))
		}
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				select {
				case <-c.acceptDone:
					return
				case <-c.ctx.Done():
					return
				default:
					continue
				}
			}
			return
		}
		select {
		case <-c.acceptDone:
			conn.Close()
			return
		case <-c.ctx.Done():
			conn.Close()
			return
		default:
		}
		go c.readHello(conn)
	}
}

// readHello reads and validates one HELLO frame. A zero-length frame is a
// clean error here — the previous implementation sliced body[1:] before
// checking emptiness, a network-reachable panic.
func (c *Coordinator) readHello(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	nc := &nodeConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	hc := helloConn{nc: nc, id: -1}
	body, err := readFrame(nc.r)
	switch {
	case err != nil:
		var ne net.Error
		hc.ioErr = errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
		hc.err = fmt.Errorf("transport: hello from %s: %w", conn.RemoteAddr(), err)
	case len(body) == 0 || body[0] != frameHello:
		hc.err = fmt.Errorf("transport: bad hello from %s", conn.RemoteAddr())
	default:
		d := wire.NewDecoder(body[1:])
		id := int(d.Uvarint())
		if d.Len() > 0 {
			hc.completed = int(d.Uvarint())
			hc.resume = true
		}
		if d.Finish() != nil || id < 0 || id >= c.n {
			hc.err = fmt.Errorf("transport: bad hello from %s", conn.RemoteAddr())
		} else {
			hc.id = id
		}
	}
	select {
	case c.connCh <- hc:
	case <-c.acceptDone:
		conn.Close()
	}
}

// awaitHellos collects the n initial HELLOs, failing with the list of
// missing node ids when the accept window expires.
func (c *Coordinator) awaitHellos(conns []*nodeConn) error {
	deadline := time.NewTimer(c.opts.AcceptTimeout)
	defer deadline.Stop()
	for registered := 0; registered < c.n; {
		select {
		case hc := <-c.connCh:
			if hc.err != nil {
				if hc.ioErr {
					hc.nc.conn.Close()
					continue
				}
				return hc.err
			}
			if hc.resume && hc.completed != 0 {
				hc.nc.conn.Close()
				return fmt.Errorf("transport: node %d sent resume hello before the run started", hc.id)
			}
			if conns[hc.id] != nil {
				if c.opts.ReconnectGrace > 0 {
					// A node re-sends HELLO only when it believes its
					// first registration failed (e.g. a reset reported
					// mid-write that was in fact delivered); with
					// reconnection enabled the newest connection
					// supersedes the old one. Without it, two claims on
					// one id remain a fatal misconfiguration.
					conns[hc.id].conn.Close()
					conns[hc.id] = hc.nc
					continue
				}
				hc.nc.conn.Close()
				return fmt.Errorf("transport: bad hello from %s: duplicate id %d", hc.nc.conn.RemoteAddr(), hc.id)
			}
			conns[hc.id] = hc.nc
			registered++
		case <-deadline.C:
			var missing []int
			for i, nc := range conns {
				if nc == nil {
					missing = append(missing, i)
				}
			}
			return fmt.Errorf("transport: waiting for node ids %v: no HELLO within %v", missing, c.opts.AcceptTimeout)
		case <-c.ctx.Done():
			return fmt.Errorf("transport: accept interrupted: %w", c.ctx.Err())
		}
	}
	return nil
}

// runRounds drives the barrier: gather one frame per active node, run the
// communication phase, deliver.
func (c *Coordinator) runRounds(conns []*nodeConn) error {
	for round := 1; c.numActive > 0; round++ {
		if round > c.maxRounds {
			return fmt.Errorf("transport: exceeded %d rounds", c.maxRounds)
		}
		if err := c.ctx.Err(); err != nil {
			return fmt.Errorf("transport: run interrupted: %w", err)
		}

		c.outbox = c.outbox[:0]
		for id := 0; id < c.n; id++ {
			if !c.active[id] {
				continue
			}
			body, err := c.readRound(conns, id, round)
			if err != nil {
				if ferr := c.fail(conns, id, round, err); ferr != nil {
					return ferr
				}
				continue
			}
			mark := len(c.outbox)
			if err := c.parseFrame(id, body); err != nil {
				// Drop the crashed node's partially parsed outbox: its
				// sends this round are synthesized as omissions.
				c.outbox = c.outbox[:mark]
				if ferr := c.fail(conns, id, round, err); ferr != nil {
					return ferr
				}
			}
		}
		if c.numActive == 0 {
			// All-DONE fast path: every remaining frame this round was a
			// DONE (or a crash), so there is no communication phase to
			// run and nobody left to deliver to. Note that an empty
			// outbox alone is NOT a fast path — active nodes sending
			// empty batches still complete a full communication phase
			// (the adversary may corrupt on quiet rounds, and the nodes
			// block on their DELIVER).
			break
		}
		c.counters.AddRounds(1)
		c.liveRound.Store(int64(round))
		ndrop, err := c.communicate(round)
		if err != nil {
			return err
		}
		c.liveCorrupted.Store(int64(c.phase.Legality().NumCorrupted()))
		if c.opts.Trace.Enabled() {
			// Round boundary: the delta since the previous boundary, crashes
			// and retries excluded (their events carry those totals).
			snap := c.counters.Snapshot()
			c.opts.Trace.Emit(trace.Event{
				Kind: trace.KindRoundEnd, Round: round, Proc: -1,
				Rounds:   snap.Rounds - c.lastTraced.Rounds,
				Messages: snap.Messages - c.lastTraced.Messages,
				CommBits: snap.CommBits - c.lastTraced.CommBits,
				Drops:    int64(ndrop),
			})
			c.lastTraced = snap
		}
		if err := c.deliver(conns, round); err != nil {
			return err
		}
	}
	return nil
}

// readRound reads node id's frame for this round, adopting a resumed
// connection when the read fails and reconnection is enabled.
func (c *Coordinator) readRound(conns []*nodeConn, id, round int) ([]byte, error) {
	nc := conns[id]
	nc.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	body, err := readFrame(nc.r)
	if err == nil {
		return body, nil
	}
	if c.opts.ReconnectGrace > 0 {
		if nc2 := c.awaitResume(conns, id, round); nc2 != nil {
			nc2.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
			if body, rerr := readFrame(nc2.r); rerr == nil {
				return body, nil
			}
		}
	}
	return nil, fmt.Errorf("transport: node %d round %d: %w", id, round, err)
}

// parseFrame interprets one gathered frame: a DONE retires the node, a
// BATCH contributes to the outbox. Any malformed content is an error the
// caller handles under the failure policy.
func (c *Coordinator) parseFrame(id int, body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("transport: node %d sent empty frame", id)
	}
	switch body[0] {
	case frameDone:
		d := wire.NewDecoder(body[1:])
		decision := int(d.Uvarint()) - 1
		if d.Err() != nil {
			return fmt.Errorf("transport: node %d done: %w", id, d.Err())
		}
		c.decisions[id] = decision
		c.outcomes[id] = sim.OutcomeDecided
		c.active[id] = false
		c.numActive--
		c.liveActive.Store(int64(c.numActive))
		c.opts.Trace.Emit(trace.Event{
			Kind: trace.KindDecide, Round: int(c.liveRound.Load()) + 1, Proc: id,
			Value: int64(decision),
		})
		return nil
	case frameBatch:
		d := wire.NewDecoder(body[1:])
		count := d.Uvarint()
		for i := uint64(0); i < count; i++ {
			to := int(d.Uvarint())
			frame := d.Bytes()
			if d.Err() != nil {
				return fmt.Errorf("transport: node %d batch: %w", id, d.Err())
			}
			if to < 0 || to >= c.n {
				return fmt.Errorf("transport: node %d sent to invalid target %d", id, to)
			}
			c.outbox = append(c.outbox, sim.Msg(id, to, rawPayload(frame)))
		}
		return nil
	default:
		return fmt.Errorf("transport: node %d sent frame type %d", id, body[0])
	}
}

// fail handles a node failure under the configured policy: FailFast
// returns the cause to abort the run; FailAsOmission converts the failure
// into an in-model fault (crash + corruption) and lets the run continue
// unless the crash pushes the corrupted count past the fault budget.
func (c *Coordinator) fail(conns []*nodeConn, id, round int, cause error) error {
	if c.opts.Policy == FailFast {
		return cause
	}
	conns[id].conn.Close()
	c.active[id] = false
	c.numActive--
	c.crashed[id] = true
	c.outcomes[id] = sim.OutcomeCrashed
	c.counters.AddCrash()
	c.failures = append(c.failures, sim.FailureEvent{Process: id, Round: round, Reason: cause.Error()})
	c.opts.Trace.Emit(trace.Event{Kind: trace.KindCrash, Round: round, Proc: id, Crashes: 1, Note: cause.Error()})

	legality := c.phase.Legality()
	budgetErr := legality.Corrupt(round, id)
	c.liveActive.Store(int64(c.numActive))
	c.liveCorrupted.Store(int64(legality.NumCorrupted()))
	if crashes := len(c.failures); c.opts.MaxCrashes > 0 && crashes > c.opts.MaxCrashes {
		return fmt.Errorf("transport: %d crashes exceed cap %d: %w", crashes, c.opts.MaxCrashes, cause)
	}
	if budgetErr != nil {
		return fmt.Errorf("%w after crash of node %d: %v", budgetErr, id, cause)
	}
	return nil
}

// awaitResume waits up to ReconnectGrace for node id to re-dial, parking
// resume connections from other nodes for their own turn. It returns the
// adopted connection, or nil when the grace window expires.
func (c *Coordinator) awaitResume(conns []*nodeConn, id, round int) *nodeConn {
	conns[id].conn.Close()
	deadline := time.NewTimer(c.opts.ReconnectGrace)
	defer deadline.Stop()
	for {
		if hc, ok := c.parked[id]; ok {
			delete(c.parked, id)
			if nc := c.adopt(hc, id); nc != nil {
				conns[id] = nc
				return nc
			}
			continue
		}
		select {
		case hc := <-c.connCh:
			if hc.err != nil || hc.id < 0 {
				hc.nc.conn.Close()
				continue
			}
			if hc.id == id {
				if nc := c.adopt(&hc, id); nc != nil {
					conns[id] = nc
					return nc
				}
				continue
			}
			// Another node is reconnecting; hold its connection until
			// its own failure is discovered. A newer resume supersedes
			// a stale parked one.
			if old, ok := c.parked[hc.id]; ok {
				old.nc.conn.Close()
			}
			parked := hc
			c.parked[hc.id] = &parked
		case <-deadline.C:
			return nil
		}
	}
}

// adopt validates a resume hello against the coordinator's bookkeeping
// and completes the handshake: RESUME-ACK, plus a replay of the last
// DELIVER when the node missed it. Returns nil when the connection cannot
// be adopted.
func (c *Coordinator) adopt(hc *helloConn, id int) *nodeConn {
	nc := hc.nc
	last := c.lastDeliverRound[id]
	replay := false
	switch {
	case !hc.resume:
		// A plain HELLO mid-run is a node restarting from scratch; it
		// cannot rejoin a protocol already in flight.
	case hc.completed == last:
		// In sync: the node will (re)send its frame for round last+1.
	case hc.completed == last-1 && c.lastDeliverBody[id] != nil:
		replay = true
	default:
		// Stale or future state; unrecoverable.
	}
	accepted := hc.resume && (hc.completed == last || replay)
	nc.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	if err := writeFrame(nc.w, resumeAckBody(accepted, replay)); err != nil || !accepted {
		nc.conn.Close()
		return nil
	}
	if replay {
		if err := writeFrame(nc.w, c.lastDeliverBody[id]); err != nil {
			nc.conn.Close()
			return nil
		}
	}
	c.counters.AddRetry()
	c.opts.Trace.Emit(trace.Event{
		Kind: trace.KindRetry, Round: int(c.liveRound.Load()), Proc: id, Retries: 1,
	})
	return nc
}

// communicate runs round's communication phase on the gathered outbox —
// the simulator's kernel: accounting, canonical order, the adversary and
// its legality, the carve — and encodes each active node's DELIVER into its
// reused buffer, kept for replay to a node that resumes. It touches no
// socket. It returns the number of dropped messages.
func (c *Coordinator) communicate(round int) (int, error) {
	ndrop, err := c.phase.Communicate(round, c.outbox)
	if err != nil {
		return 0, err
	}
	for id, active := range c.active {
		if active {
			c.lastDeliverRound[id] = round
			c.lastDeliverBody[id] = appendDeliver(c.lastDeliverBody[id][:0], c.phase.Inbox(id))
		}
	}
	return ndrop, nil
}

// deliver writes every active node's DELIVER; a failed write is handled
// under the resume and failure policies.
func (c *Coordinator) deliver(conns []*nodeConn, round int) error {
	for id := 0; id < c.n; id++ {
		if !c.active[id] {
			continue
		}
		nc := conns[id]
		nc.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
		if err := writeFrame(nc.w, c.lastDeliverBody[id]); err != nil {
			if c.opts.ReconnectGrace > 0 && c.awaitResume(conns, id, round) != nil {
				// The adopt handshake replayed this DELIVER (or the node
				// already had it); the node is back in step.
				continue
			}
			if ferr := c.fail(conns, id, round, fmt.Errorf("transport: deliver to %d: %w", id, err)); ferr != nil {
				return ferr
			}
		}
	}
	return nil
}

// result snapshots the per-node outcomes and metrics.
func (c *Coordinator) result() *CoordinatorResult {
	return &CoordinatorResult{
		Decisions: append([]int(nil), c.decisions...),
		Corrupted: c.phase.Legality().Mask(),
		Crashed:   append([]bool(nil), c.crashed...),
		Outcomes:  append([]sim.Outcome(nil), c.outcomes...),
		Failures:  append([]sim.FailureEvent(nil), c.failures...),
		Metrics:   c.counters.Snapshot(),
	}
}
