package distrib

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"omicon/internal/telemetry"
	"omicon/internal/transport"
	"omicon/internal/wire"
)

// PoolOptions tunes the coordinator-side dispatcher. The zero value
// selects the defaults noted per field.
type PoolOptions struct {
	// Heartbeat is the beat interval announced to workers in WELCOME
	// (default 500ms).
	Heartbeat time.Duration
	// HeartbeatMiss is how many consecutive missed beats declare a worker
	// dead (default 4): while a job is in flight the coordinator reads
	// that worker's stream under a deadline of Heartbeat*HeartbeatMiss,
	// so crash detection is purely deadline-based — no separate failure
	// detector. Idle workers are never deadline-killed.
	HeartbeatMiss int
	// PoisonK quarantines a job after this many consecutive worker
	// deaths while it was in flight (default 3): the job is executed
	// in-process through the executor registry and flagged, instead of
	// crash-looping the fleet.
	PoisonK int
	// DegradeAfter is how long Execute waits with zero live workers
	// before degrading to in-process execution (default 1s). A worker
	// (re)joining restores remote dispatch for subsequent jobs.
	DegradeAfter time.Duration
	// IOTimeout bounds the join handshake (default 10s).
	IOTimeout time.Duration
	// Log receives "distrib:"-prefixed diagnostics (joins, deaths,
	// re-dispatches, quarantines, degradations). Nil disables. The chaos
	// verifier strips these lines, so diagnostics never perturb
	// byte-identity checks.
	Log io.Writer
	// Telemetry, when set, registers the dispatch-layer metric catalog
	// (docs/OBSERVABILITY.md) in this registry. Strictly observational;
	// nil disables at the cost of one nil check per event.
	Telemetry *telemetry.Registry
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = 4
	}
	if o.PoisonK <= 0 {
		o.PoisonK = 3
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	return o
}

// PoolStats counts dispatch-layer events. Diagnostic only: none of these
// affect campaign artifacts.
type PoolStats struct {
	// WorkersJoined counts successful handshakes (a reconnecting worker
	// counts again).
	WorkersJoined int
	// WorkerDeaths counts workers dropped for I/O errors or missed
	// heartbeats (clean Goodbye shutdowns are not deaths).
	WorkerDeaths int
	// Dispatched counts job sends, Redispatched the subset re-sent after
	// a worker died with the job in flight.
	Dispatched   int
	Redispatched int
	// Quarantined counts jobs isolated after PoisonK consecutive deaths;
	// LocalRuns counts degradation fallbacks with no workers alive.
	Quarantined int
	LocalRuns   int
}

// poolMetrics holds the dispatch-layer telemetry handles. All fields are
// nil (no-op) when PoolOptions.Telemetry is nil.
type poolMetrics struct {
	dispatches   *telemetry.Counter
	redispatches *telemetry.Counter
	quarantines  *telemetry.Counter
	localRuns    *telemetry.Counter
	joins        *telemetry.Counter
	deaths       *telemetry.Counter
	heartbeats   *telemetry.Counter
	dispatchSec  *telemetry.Histogram
}

func newPoolMetrics(reg *telemetry.Registry) poolMetrics {
	return poolMetrics{
		dispatches:   reg.Counter("omicon_distrib_dispatches_total", "jobs dispatched to remote workers"),
		redispatches: reg.Counter("omicon_distrib_redispatches_total", "jobs re-dispatched after a worker died with them in flight"),
		quarantines:  reg.Counter("omicon_distrib_quarantines_total", "poison jobs executed in-process after PoisonK consecutive worker deaths"),
		localRuns:    reg.Counter("omicon_distrib_local_runs_total", "jobs executed in-process because no workers were alive"),
		joins:        reg.Counter("omicon_distrib_worker_joins_total", "successful worker handshakes (reconnects count again)"),
		deaths:       reg.Counter("omicon_distrib_worker_deaths_total", "workers dropped for I/O errors or missed heartbeats"),
		heartbeats:   reg.Counter("omicon_distrib_heartbeats_total", "heartbeat frames received from workers"),
		dispatchSec:  reg.Histogram("omicon_distrib_dispatch_seconds", "remote dispatch round-trip time (job send to result)", nil),
	}
}

// ExecResult is one Execute call's outcome.
type ExecResult struct {
	Payload []byte
	// Quarantined marks a poison job that was executed in-process after
	// killing PoisonK workers in a row.
	Quarantined bool
	// Local marks a degradation fallback (no live workers).
	Local bool
	// Redispatches counts worker deaths this job survived.
	Redispatches int
}

// Pool dispatches jobs to connected worker processes, re-dispatching on
// death, quarantining poison jobs, and degrading to in-process execution
// when the fleet is empty. Execute blocks per job, so the caller's own
// concurrency (the partrial produce pool) bounds in-flight jobs, and the
// caller's serial commit order is untouched — the property that keeps
// distributed artifacts byte-identical.
type Pool struct {
	opts  PoolOptions
	local *Executors
	reg   *wire.Registry
	met   poolMetrics

	tasks  chan *task
	closed chan struct{}
	once   sync.Once

	mu      sync.Mutex
	ln      net.Listener
	nextID  uint64
	alive   int
	workers map[uint64]*poolWorker
	gone    []WorkerInfo // most recent dead workers, for stale-snapshot post-mortems
	stats   PoolStats
}

// goneCap bounds the retained dead-worker history.
const goneCap = 8

type task struct {
	key, kind string
	payload   []byte
	done      chan taskResult
}

type taskResult struct {
	payload []byte
	err     error
	died    bool
	worker  uint64
}

type poolWorker struct {
	id     uint64
	name   string
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	wmu    sync.Mutex // serializes job writes and the shutdown Goodbye
	seq    uint64
	window time.Duration

	results  chan *ResultMsg
	dead     chan struct{}
	deadOnce sync.Once

	// smu guards the live status fields below, read by Workers() for
	// /statusz and written by the read loop and runOn. It also makes the
	// inflight check-and-arm of the read deadline atomic: the read loop
	// decides idle-vs-armed under smu, and runOn flips inflight and
	// (re)arms under the same lock, so an idle worker can never be left
	// with a live deadline nor an in-flight one without.
	smu         sync.Mutex
	joinedAt    time.Time
	lastBeat    time.Time
	beats       int64
	jobsDone    int64
	inflight    bool
	inflightKey string
	stats       []byte // last piggybacked telemetry snapshot (JSON), if any
}

func (pw *poolWorker) write(body []byte, deadline time.Duration) error {
	pw.wmu.Lock()
	defer pw.wmu.Unlock()
	pw.conn.SetWriteDeadline(time.Now().Add(deadline))
	return transport.WriteFrame(pw.w, body)
}

// kill marks the worker's connection dead, waking serveWorker and runOn.
func (pw *poolWorker) kill() { pw.deadOnce.Do(func() { close(pw.dead) }) }

// info snapshots the worker's status fields.
func (pw *poolWorker) info(alive bool) WorkerInfo {
	pw.smu.Lock()
	defer pw.smu.Unlock()
	return WorkerInfo{
		ID: pw.id, Name: pw.name, Alive: alive, Stale: !alive,
		JoinedAt: pw.joinedAt, LastBeat: pw.lastBeat, Beats: pw.beats,
		JobsDone: pw.jobsDone, InFlight: pw.inflight, InFlightKey: pw.inflightKey,
		Stats: pw.stats,
	}
}

// WorkerInfo is one worker's live (or, when Stale, last-known) status as
// surfaced on /statusz. Stats holds the worker's most recent
// heartbeat-piggybacked telemetry snapshot (JSON telemetry.Snapshot);
// stale snapshots are retained for post-mortems.
type WorkerInfo struct {
	ID          uint64
	Name        string
	Alive       bool
	Stale       bool
	JoinedAt    time.Time
	LastBeat    time.Time
	Beats       int64
	JobsDone    int64
	InFlight    bool
	InFlightKey string
	Stats       []byte
}

// NewPool returns a dispatcher executing local fallbacks (degradation,
// quarantine) through local, which must cover every kind the pool will
// Execute.
func NewPool(local *Executors, opts PoolOptions) *Pool {
	p := &Pool{
		opts:    opts.withDefaults(),
		local:   local,
		reg:     Registry(),
		met:     newPoolMetrics(opts.Telemetry),
		tasks:   make(chan *task),
		closed:  make(chan struct{}),
		workers: make(map[uint64]*poolWorker),
	}
	opts.Telemetry.GaugeFunc("omicon_distrib_workers_alive", "workers currently connected",
		func() float64 { return float64(p.aliveWorkers()) })
	opts.Telemetry.GaugeFunc("omicon_distrib_inflight_jobs", "jobs currently dispatched and awaiting results",
		func() float64 { return float64(p.inflightJobs()) })
	return p
}

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Log != nil {
		fmt.Fprintf(p.opts.Log, "distrib: "+format+"\n", args...)
	}
}

// Serve accepts worker connections on ln until Close. It owns ln's
// lifetime from this point: Close closes it to unblock Accept.
func (p *Pool) Serve(ln net.Listener) {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		select {
		case <-p.closed:
			conn.Close()
			return
		default:
		}
		go p.handshake(conn)
	}
}

// Close shuts the pool down: the listener stops accepting, each
// worker's serve loop sends a best-effort Goodbye and drops the
// connection, and pending Execute calls abort.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.mu.Lock()
		ln := p.ln
		p.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
	})
}

// handshake validates one HELLO under IOTimeout, registers the worker,
// and starts its serve loop.
func (p *Pool) handshake(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(p.opts.IOTimeout))
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	frame, err := transport.ReadFrame(r)
	if err != nil {
		conn.Close()
		return
	}
	msg, err := p.reg.DecodeFrame(wire.NewDecoder(frame))
	if err != nil {
		conn.Close()
		return
	}
	hello, ok := msg.(*Hello)
	if !ok {
		conn.Close()
		return
	}
	now := time.Now()
	pw := &poolWorker{
		name: hello.Name, conn: conn, r: r, w: w,
		window:   p.opts.Heartbeat * time.Duration(p.opts.HeartbeatMiss),
		results:  make(chan *ResultMsg, 1),
		dead:     make(chan struct{}),
		joinedAt: now,
		lastBeat: now,
	}
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		conn.Close()
		return
	default:
	}
	p.nextID++
	pw.id = p.nextID
	p.workers[pw.id] = pw
	p.alive++
	p.stats.WorkersJoined++
	p.mu.Unlock()
	p.met.joins.Inc()

	welcome := &Welcome{Worker: pw.id, HeartbeatMillis: uint64(p.opts.Heartbeat / time.Millisecond)}
	if err := transport.WriteFrame(w, wire.EncodeFrame(nil, welcome)); err != nil {
		p.dropWorker(pw, "welcome write failed")
		return
	}
	conn.SetDeadline(time.Time{}) // per-operation deadlines from here on
	p.logf("worker %d (%s) joined, %d alive", pw.id, pw.name, p.aliveWorkers())
	go p.serveWorker(pw)
}

// dropWorker removes a dead worker from the fleet, retaining its last
// status (including any piggybacked snapshot) in the bounded gone list.
// Clean shutdown (pool closed) is not a death.
func (p *Pool) dropWorker(pw *poolWorker, reason string) {
	pw.kill()
	pw.conn.Close()
	info := pw.info(false)
	p.mu.Lock()
	_, registered := p.workers[pw.id]
	if registered {
		delete(p.workers, pw.id)
		p.alive--
	}
	closed := false
	select {
	case <-p.closed:
		closed = true
	default:
	}
	if registered && !closed {
		p.stats.WorkerDeaths++
		p.gone = append(p.gone, info)
		if len(p.gone) > goneCap {
			p.gone = p.gone[len(p.gone)-goneCap:]
		}
	}
	alive := p.alive
	p.mu.Unlock()
	if registered && !closed {
		p.met.deaths.Inc()
		p.logf("worker %d (%s) lost: %s, %d alive", pw.id, pw.name, reason, alive)
	}
}

// serveWorker pulls tasks from the shared queue and runs them on one
// worker connection until the worker dies or the pool closes. The
// connection's reads are owned by readLoop.
func (p *Pool) serveWorker(pw *poolWorker) {
	go p.readLoop(pw)
	for {
		select {
		case <-p.closed:
			// Clean shutdown: tell the worker the campaign is over so it
			// exits instead of burning its reconnect budget.
			pw.write(wire.EncodeFrame(nil, &Goodbye{Reason: "campaign complete"}), time.Second)
			p.dropWorker(pw, "pool closed")
			return
		case <-pw.dead:
			p.dropWorker(pw, "connection lost")
			return
		case t := <-p.tasks:
			res := p.runOn(pw, t)
			if res.died {
				// Record the death before the result wakes Execute, so
				// a caller that sees the re-dispatched result also
				// sees the death in Stats.
				p.dropWorker(pw, fmt.Sprintf("died with %s in flight", t.key))
				t.done <- res
				return
			}
			t.done <- res
		}
	}
}

// readLoop owns all reads on one worker connection: heartbeats update the
// worker's status row (and stash any piggybacked snapshot), results are
// forwarded to the in-flight runOn, and any error or protocol violation
// marks the worker dead. The read deadline is armed only while a job is
// in flight — idle workers (including test doubles that never beat) block
// indefinitely without being declared dead.
func (p *Pool) readLoop(pw *poolWorker) {
	for {
		pw.smu.Lock()
		if pw.inflight {
			pw.conn.SetReadDeadline(time.Now().Add(pw.window))
		} else {
			pw.conn.SetReadDeadline(time.Time{})
		}
		pw.smu.Unlock()
		frame, err := transport.ReadFrame(pw.r)
		if err != nil {
			pw.kill()
			return
		}
		msg, err := p.reg.DecodeFrame(wire.NewDecoder(frame))
		if err != nil {
			pw.kill()
			return
		}
		switch m := msg.(type) {
		case *Heartbeat:
			pw.smu.Lock()
			pw.lastBeat = time.Now()
			pw.beats++
			if len(m.Stats) > 0 {
				pw.stats = m.Stats
			}
			pw.smu.Unlock()
			p.met.heartbeats.Inc()
		case *ResultMsg:
			select {
			case pw.results <- m:
			case <-pw.dead:
				return
			case <-p.closed:
				return
			}
		default:
			pw.kill()
			return
		}
	}
}

// runOn dispatches one task to one worker and waits for its result.
// Heartbeats arrive interleaved on the read loop and re-extend the
// deadline it arms; a deadline expiry, connection error, or protocol
// violation kills the worker, which makes Execute re-dispatch the task.
// A result whose sequence number does not match the live dispatch is
// stale (a superseded dispatch from before a reconnect) and dropped.
func (p *Pool) runOn(pw *poolWorker, t *task) taskResult {
	pw.seq++
	start := time.Now()
	pw.smu.Lock()
	pw.inflight = true
	pw.inflightKey = t.key
	pw.conn.SetReadDeadline(time.Now().Add(pw.window))
	pw.smu.Unlock()
	defer func() {
		pw.smu.Lock()
		pw.inflight = false
		pw.inflightKey = ""
		pw.conn.SetReadDeadline(time.Time{})
		pw.smu.Unlock()
	}()
	body := wire.EncodeFrame(nil, &JobMsg{Seq: pw.seq, Kind: t.kind, Key: t.key, Payload: t.payload})
	if err := pw.write(body, pw.window); err != nil {
		return taskResult{died: true, worker: pw.id}
	}
	for {
		select {
		case m := <-pw.results:
			if m.Seq != pw.seq {
				continue
			}
			pw.smu.Lock()
			pw.jobsDone++
			pw.smu.Unlock()
			p.met.dispatchSec.Observe(time.Since(start).Seconds())
			if !m.OK {
				return taskResult{err: errors.New(m.Err), worker: pw.id}
			}
			return taskResult{payload: m.Payload, worker: pw.id}
		case <-pw.dead:
			return taskResult{died: true, worker: pw.id}
		case <-p.closed:
			// Pool shutdown, not a death: serveWorker sends the Goodbye.
			return taskResult{err: errPoolClosed, worker: pw.id}
		}
	}
}

func (p *Pool) aliveWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}

// inflightJobs counts workers with a job currently dispatched.
func (p *Pool) inflightJobs() int {
	p.mu.Lock()
	ws := make([]*poolWorker, 0, len(p.workers))
	for _, pw := range p.workers {
		ws = append(ws, pw)
	}
	p.mu.Unlock()
	n := 0
	for _, pw := range ws {
		pw.smu.Lock()
		if pw.inflight {
			n++
		}
		pw.smu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the dispatch counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Workers returns the fleet status: live workers first, then retained
// dead (Stale) ones, ordered by id.
func (p *Pool) Workers() []WorkerInfo {
	p.mu.Lock()
	ws := make([]*poolWorker, 0, len(p.workers))
	for _, pw := range p.workers {
		ws = append(ws, pw)
	}
	gone := append([]WorkerInfo(nil), p.gone...)
	p.mu.Unlock()
	out := make([]WorkerInfo, 0, len(ws)+len(gone))
	for _, pw := range ws {
		out = append(out, pw.info(true))
	}
	out = append(out, gone...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkerStatuses renders the fleet as /statusz rows, decoding each
// worker's piggybacked snapshot.
func (p *Pool) WorkerStatuses() []telemetry.WorkerStatus {
	infos := p.Workers()
	out := make([]telemetry.WorkerStatus, 0, len(infos))
	for _, wi := range infos {
		ws := telemetry.WorkerStatus{
			ID: wi.ID, Name: wi.Name, Alive: wi.Alive, Stale: wi.Stale,
			Beats: wi.Beats, InFlight: wi.InFlightKey, JobsDone: wi.JobsDone,
			JoinedAt: wi.JoinedAt,
		}
		if !wi.LastBeat.IsZero() {
			ws.HeartbeatAgeMillis = time.Since(wi.LastBeat).Milliseconds()
		}
		if snap := decodeSnapshot(wi.Stats); snap != nil {
			ws.Metrics = snap
		}
		out = append(out, ws)
	}
	return out
}

func decodeSnapshot(raw []byte) *telemetry.Snapshot {
	if len(raw) == 0 {
		return nil
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil
	}
	return &snap
}

func (p *Pool) bump(f func(*PoolStats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// AwaitWorkers blocks until at least n workers are connected, the
// timeout expires, or ctx is canceled. A timeout is not fatal — the
// caller typically logs it and proceeds degraded.
func (p *Pool) AwaitWorkers(ctx context.Context, n int, timeout time.Duration) error {
	if n <= 0 {
		return nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if p.aliveWorkers() >= n {
			return nil
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			return fmt.Errorf("distrib: %d of %d workers after %v", p.aliveWorkers(), n, timeout)
		case <-ctx.Done():
			return ctx.Err()
		case <-p.closed:
			return errPoolClosed
		}
	}
}

// Execute dispatches one job and blocks until its result: remote when a
// worker is available, re-dispatched on worker death, quarantined
// in-process after PoisonK consecutive deaths, or run in-process when no
// workers are alive for DegradeAfter. Execute is safe for concurrent
// use; each call owns exactly one job.
func (p *Pool) Execute(ctx context.Context, key, kind string, payload []byte) (ExecResult, error) {
	t := &task{key: key, kind: kind, payload: payload, done: make(chan taskResult, 1)}
	res := ExecResult{}
	degrade := time.NewTimer(p.opts.DegradeAfter)
	defer degrade.Stop()
	for {
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-p.closed:
			return res, errPoolClosed
		case p.tasks <- t:
			p.bump(func(s *PoolStats) { s.Dispatched++ })
			p.met.dispatches.Inc()
			select {
			case r := <-t.done:
				if r.died {
					res.Redispatches++
					if res.Redispatches >= p.opts.PoisonK {
						p.bump(func(s *PoolStats) { s.Quarantined++ })
						p.met.quarantines.Inc()
						p.logf("quarantining %s after %d consecutive worker deaths; executing in-process", key, res.Redispatches)
						out, err := p.local.Run(kind, payload)
						res.Payload = out
						res.Quarantined = true
						return res, err
					}
					p.bump(func(s *PoolStats) { s.Redispatched++ })
					p.met.redispatches.Inc()
					p.logf("re-dispatching %s (worker %d died, attempt %d/%d)", key, r.worker, res.Redispatches+1, p.opts.PoisonK)
					degrade.Reset(p.opts.DegradeAfter)
					continue
				}
				res.Payload = r.payload
				return res, r.err
			case <-ctx.Done():
				return res, ctx.Err()
			case <-p.closed:
				return res, errPoolClosed
			}
		case <-degrade.C:
			if p.aliveWorkers() == 0 {
				p.bump(func(s *PoolStats) { s.LocalRuns++ })
				p.met.localRuns.Inc()
				p.logf("no live workers for %v; executing %s in-process", p.opts.DegradeAfter, key)
				out, err := p.local.Run(kind, payload)
				res.Payload = out
				res.Local = true
				return res, err
			}
			degrade.Reset(p.opts.DegradeAfter)
		}
	}
}
