package distrib

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"omicon/internal/telemetry"
	"omicon/internal/transport"
	"omicon/internal/wire"
)

// WorkerOptions tunes a worker's connection behaviour. The zero value
// selects the defaults noted per field.
type WorkerOptions struct {
	// Name identifies the worker in coordinator diagnostics (default
	// "<hostname>-<pid>").
	Name string
	// RetryMax bounds consecutive failed connection attempts before the
	// worker gives up (default 30). A session that served at least one
	// job resets the budget — a worker that outlives several coordinator
	// restarts keeps serving.
	RetryMax int
	// RetryBase is the reconnect backoff base (default 100ms); attempts
	// back off exponentially with +-50% deterministic jitter, capped at
	// RetryCap (default 2s) — the same shape as the transport node's
	// dial backoff.
	RetryBase time.Duration
	RetryCap  time.Duration
	// DialTimeout bounds one TCP dial (default 5s).
	DialTimeout time.Duration
	// Resolve, when set, re-resolves the coordinator address before every
	// attempt — e.g. re-reading an -addr-file, so a worker finds a
	// chaos-restarted coordinator that rebound to a new port.
	Resolve func() (string, error)
	// Log receives "distrib:"-prefixed diagnostics. Nil disables.
	Log io.Writer
	// Telemetry, when set, registers the worker-side metric catalog and
	// piggybacks a JSON snapshot of the whole registry on every heartbeat
	// frame, which the coordinator's /statusz shows in this worker's row.
	// Strictly observational; nil disables the piggyback (heartbeats carry
	// empty Stats).
	Telemetry *telemetry.Registry
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 30
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// ResolveFile returns a Resolve function that reads the coordinator
// address from path on every attempt (the file cmd/torture -addr-file
// writes). Reading per attempt matters: a supervisor-restarted campaign
// rebinds a fresh port and rewrites the file.
func ResolveFile(path string) func() (string, error) {
	return func() (string, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		addr := strings.TrimSpace(string(b))
		if addr == "" {
			return "", fmt.Errorf("distrib: empty address file %s", path)
		}
		return addr, nil
	}
}

// RunWorker connects to the coordinator at addr (or opts.Resolve's
// address) and serves jobs through ex until the coordinator says
// Goodbye, ctx is canceled (clean exits, nil error), or the reconnect
// budget is exhausted (the last connection error is returned). Reconnect
// attempts back off exponentially with deterministic jitter.
func RunWorker(ctx context.Context, addr string, ex *Executors, opts WorkerOptions) error {
	opts = opts.withDefaults()
	reg := Registry()
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "distrib: "+format+"\n", args...)
		}
	}
	// Deterministic jitter stream seeded from the worker name, so a fleet
	// of workers does not thundering-herd a restarted coordinator.
	var jitter uint64
	for _, c := range opts.Name {
		jitter = jitter*131 + uint64(c)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		if attempt > opts.RetryMax {
			if lastErr == nil {
				lastErr = errors.New("no connection")
			}
			return fmt.Errorf("distrib: worker %s giving up after %d attempts: %w", opts.Name, opts.RetryMax, lastErr)
		}
		if attempt > 0 {
			sleepBackoff(ctx, opts.RetryBase, opts.RetryCap, attempt, &jitter)
			if ctx.Err() != nil {
				return nil
			}
		}
		target := addr
		if opts.Resolve != nil {
			resolved, err := opts.Resolve()
			if err != nil {
				lastErr = err
				continue
			}
			target = resolved
		}
		conn, err := net.DialTimeout("tcp", target, opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		served, goodbye, err := serveSession(ctx, conn, ex, reg, opts, logf)
		conn.Close()
		if ctx.Err() != nil {
			return nil
		}
		if goodbye {
			logf("worker %s: coordinator said goodbye after %d jobs", opts.Name, served)
			return nil
		}
		lastErr = err
		if served > 0 {
			// A productive session resets the budget: the coordinator was
			// real, so its loss is a restart to ride out, not a bad address.
			attempt = 0
		}
	}
}

// serveSession runs one connection: HELLO/WELCOME handshake, a heartbeat
// goroutine at the coordinator-announced interval, then a read-execute-
// reply loop until the connection breaks or a Goodbye arrives.
func serveSession(ctx context.Context, conn net.Conn, ex *Executors, reg *wire.Registry, opts WorkerOptions, logf func(string, ...any)) (served int, goodbye bool, err error) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex
	writeMsg := func(m wire.Typed, deadline time.Duration) error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(deadline))
		return transport.WriteFrame(w, wire.EncodeFrame(nil, m))
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := writeMsg(&Hello{Name: opts.Name}, 10*time.Second); err != nil {
		return 0, false, err
	}
	frame, err := transport.ReadFrame(r)
	if err != nil {
		return 0, false, err
	}
	msg, err := reg.DecodeFrame(wire.NewDecoder(frame))
	if err != nil {
		return 0, false, err
	}
	welcome, ok := msg.(*Welcome)
	if !ok {
		return 0, false, fmt.Errorf("distrib: expected WELCOME, got kind %#x", msg.WireKind())
	}
	hb := time.Duration(welcome.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	// Worker-side metric handles; nil (no-op) without opts.Telemetry.
	// Accessors are idempotent, so re-requesting per session is free.
	sessions := opts.Telemetry.Counter("omicon_worker_sessions_total", "coordinator sessions joined (reconnects count again)")
	jobs := opts.Telemetry.Counter("omicon_worker_jobs_total", "jobs executed by this worker")
	jobSec := opts.Telemetry.Histogram("omicon_worker_job_seconds", "job execution wall time", nil)
	sessions.Inc()
	// The beat write deadline mirrors the coordinator's read window: if
	// the coordinator is gone (or SIGSTOPped long enough to fill the
	// socket), the blocked write times out and takes the session down so
	// the worker can reconnect.
	window := 4 * hb
	conn.SetReadDeadline(time.Time{})
	logf("worker %s: joined %s as worker %d (heartbeat %v)", opts.Name, conn.RemoteAddr(), welcome.Worker, hb)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		var seq uint64
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				conn.Close() // unblock the read loop for prompt shutdown
				return
			case <-tick.C:
				seq++
				// Piggyback the local telemetry snapshot on the beat: the
				// coordinator stashes the latest per worker and shows it in
				// that worker's /statusz row.
				var stats []byte
				if opts.Telemetry != nil {
					stats, _ = json.Marshal(opts.Telemetry.Snapshot())
				}
				if writeMsg(&Heartbeat{Seq: seq, Stats: stats}, window) != nil {
					conn.Close()
					return
				}
			}
		}
	}()

	for {
		frame, err := transport.ReadFrame(r)
		if err != nil {
			return served, false, err
		}
		msg, err := reg.DecodeFrame(wire.NewDecoder(frame))
		if err != nil {
			return served, false, err
		}
		switch m := msg.(type) {
		case *Goodbye:
			return served, true, nil
		case *JobMsg:
			// A panicking executor is NOT recovered: a trial that crashes
			// the process is exactly what the coordinator's poison-trial
			// quarantine exists for, and masking it as an error result
			// would abort the campaign instead.
			start := time.Now()
			payload, jerr := ex.Run(m.Kind, m.Payload)
			jobs.Inc()
			jobSec.Observe(time.Since(start).Seconds())
			res := &ResultMsg{Seq: m.Seq, OK: jerr == nil, Payload: payload}
			if jerr != nil {
				res.Payload = nil
				res.Err = jerr.Error()
			}
			if err := writeMsg(res, window); err != nil {
				return served, false, err
			}
			served++
		default:
			return served, false, fmt.Errorf("distrib: unexpected frame kind %#x", msg.WireKind())
		}
	}
}

// sleepBackoff sleeps RetryBase<<(attempt-1) capped at cap, jittered to
// [d/2, 3d/2) with a splitmix64 stream — the same backoff shape as
// transport.Node's dial retries.
func sleepBackoff(ctx context.Context, base, cap time.Duration, attempt int, jitter *uint64) {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := base << shift
	if d <= 0 || d > cap {
		d = cap
	}
	*jitter += 0x9e3779b97f4a7c15
	z := *jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	d = d/2 + time.Duration(z%uint64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
