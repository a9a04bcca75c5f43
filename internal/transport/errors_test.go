package transport

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"omicon/internal/codec"
	"omicon/internal/floodset"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

// serveOne runs a 1..n coordinator in the background and returns its error
// channel.
func serveAsync(t *testing.T, n int) (net.Listener, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	errCh := make(chan error, 1)
	go func() {
		_, serr := NewCoordinator(n, 0, nil, 16).Serve(ln)
		errCh <- serr
	}()
	return ln, errCh
}

func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewWriter(conn)
}

func TestBadHelloRejected(t *testing.T) {
	ln, errCh := serveAsync(t, 1)
	conn, w := rawConn(t, ln.Addr().String())
	_ = conn
	// Frame with the wrong type byte.
	if err := writeFrame(w, []byte{frameBatch, 0}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("want hello error, got %v", err)
	}
}

func TestOutOfRangeIDRejected(t *testing.T) {
	ln, errCh := serveAsync(t, 1)
	_, w := rawConn(t, ln.Addr().String())
	if err := writeFrame(w, helloBody(5)); err != nil { // n=1: id 5 invalid
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("out-of-range id must abort the coordinator")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	ln, errCh := serveAsync(t, 2)
	_, w1 := rawConn(t, ln.Addr().String())
	if err := writeFrame(w1, helloBody(0)); err != nil {
		t.Fatal(err)
	}
	_, w2 := rawConn(t, ln.Addr().String())
	if err := writeFrame(w2, helloBody(0)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("duplicate id must abort the coordinator")
	}
}

func TestInvalidTargetRejected(t *testing.T) {
	ln, errCh := serveAsync(t, 1)
	_, w := rawConn(t, ln.Addr().String())
	if err := writeFrame(w, helloBody(0)); err != nil {
		t.Fatal(err)
	}
	body := batchBody([]batchEntry{{to: 9, frame: []byte{1}}})
	if err := writeFrame(w, body); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "invalid target") {
		t.Fatalf("want invalid-target error, got %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	ln, errCh := serveAsync(t, 1)
	conn, w := rawConn(t, ln.Addr().String())
	// Claim a frame far beyond the cap; the coordinator must refuse
	// rather than allocate.
	if _, err := w.Write(wire.AppendUvarint(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = conn
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("want frame-limit error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not reject the oversized frame")
	}
}

func TestEmptyHelloFrameRejected(t *testing.T) {
	// A zero-length frame used to slice body[1:] out of range and panic
	// the coordinator; it must now be a clean hello error.
	ln, errCh := serveAsync(t, 1)
	_, w := rawConn(t, ln.Addr().String())
	if err := writeFrame(w, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("want hello error, got %v", err)
	}
}

func TestAcceptDeadlineNamesMissingNodes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	coord := NewCoordinator(3, 0, nil, 16)
	coord.SetOptions(Options{AcceptTimeout: 200 * time.Millisecond})
	errCh := make(chan error, 1)
	go func() {
		_, serr := coord.Serve(ln)
		errCh <- serr
	}()
	_, w := rawConn(t, ln.Addr().String())
	if err := writeFrame(w, helloBody(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "waiting for node ids [1 2]") {
			t.Fatalf("want missing-ids error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator hung instead of timing out the accept phase")
	}
}

// runSabotaged runs n-1 real floodset nodes plus one raw connection
// (process n-1) driven by the saboteur script, under the given options.
// Node errors are collected, not fatal: under FailFast the survivors are
// expected to die with the coordinator.
func runSabotaged(t *testing.T, n, tf int, opts Options, saboteur func(conn net.Conn, r *bufio.Reader, w *bufio.Writer)) (*CoordinatorResult, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(n, tf, nil, 64)
	coord.SetOptions(opts)
	type outcome struct {
		res *CoordinatorResult
		err error
	}
	served := make(chan outcome, 1)
	go func() {
		res, serr := coord.Serve(ln)
		served <- outcome{res, serr}
	}()

	reg := codec.FullRegistry()
	var wg sync.WaitGroup
	for id := 0; id < n-1; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node, derr := Dial(ln.Addr().String(), id, n, tf, reg, 42)
			if derr != nil {
				return
			}
			defer node.Close()
			node.RunProtocol(floodset.Protocol(), id%2)
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, derr := net.Dial("tcp", ln.Addr().String())
		if derr != nil {
			return
		}
		defer conn.Close()
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		if werr := writeFrame(w, helloBody(n-1)); werr != nil {
			return
		}
		saboteur(conn, r, w)
	}()

	select {
	case out := <-served:
		wg.Wait()
		return out.res, out.err
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not finish")
		return nil, nil
	}
}

// checkAbsorbedCrash asserts the FailAsOmission outcome: run completed,
// the saboteur is in the failure log as crashed, and survivors agree.
func checkAbsorbedCrash(t *testing.T, res *CoordinatorResult, err error, victim int) {
	t.Helper()
	if err != nil {
		t.Fatalf("FailAsOmission run aborted: %v", err)
	}
	if res.Outcomes[victim] != sim.OutcomeCrashed || !res.Crashed[victim] {
		t.Fatalf("victim outcome = %v (crashed=%v), want crashed", res.Outcomes[victim], res.Crashed[victim])
	}
	if len(res.Failures) == 0 || res.Failures[0].Process != victim {
		t.Fatalf("failure log %v does not report node %d", res.Failures, victim)
	}
	if res.Metrics.Crashes != 1 {
		t.Fatalf("metrics report %d crashes, want 1", res.Metrics.Crashes)
	}
	if aerr := res.CheckAgreement(); aerr != nil {
		t.Fatal(aerr)
	}
	for p := 0; p < victim; p++ {
		if res.Outcomes[p] != sim.OutcomeDecided {
			t.Fatalf("survivor %d outcome = %v", p, res.Outcomes[p])
		}
	}
}

// saboteurScripts enumerates the mid-run failure modes the policies must
// handle: each script sends the HELLO (already done by the harness) and
// then misbehaves at its first round frame.
var saboteurScripts = map[string]func(conn net.Conn, r *bufio.Reader, w *bufio.Writer){
	"disconnect": func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		conn.Close()
	},
	"oversized-frame": func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		w.Write(wire.AppendUvarint(nil, 1<<30))
		w.Flush()
	},
	"invalid-target": func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		writeFrame(w, batchBody([]batchEntry{{to: 99, frame: []byte{1}}}))
	},
	"garbage-frame-type": func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		writeFrame(w, []byte{0x7e, 1, 2, 3})
	},
	"slow-node-timeout": func(conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
		time.Sleep(2 * time.Second) // far beyond the test's IOTimeout
	},
}

func TestFailurePoliciesOnMisbehavingNode(t *testing.T) {
	const n, tf = 4, 1
	for name, script := range saboteurScripts {
		script := script
		t.Run(name+"/failfast", func(t *testing.T) {
			t.Parallel()
			opts := Options{Policy: FailFast, IOTimeout: 500 * time.Millisecond}
			_, err := runSabotaged(t, n, tf, opts, script)
			if err == nil {
				t.Fatal("FailFast must abort the run")
			}
		})
		t.Run(name+"/omission", func(t *testing.T) {
			t.Parallel()
			opts := Options{Policy: FailAsOmission, IOTimeout: 500 * time.Millisecond}
			res, err := runSabotaged(t, n, tf, opts, script)
			checkAbsorbedCrash(t, res, err, n-1)
		})
	}
}

func TestCrashBeyondBudgetAborts(t *testing.T) {
	// With t=0 even a single absorbed crash exceeds the fault budget:
	// FailAsOmission must still abort rather than tolerate more faults
	// than the algorithms are built for.
	opts := Options{Policy: FailAsOmission, IOTimeout: 300 * time.Millisecond}
	_, err := runSabotaged(t, 4, 0, opts, saboteurScripts["disconnect"])
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget error, got %v", err)
	}
}

// untypedPayload lacks a wire kind: the node must reject it cleanly.
type untypedPayload struct{}

func (untypedPayload) AppendWire(buf []byte) []byte { return append(buf, 0) }

func TestNodeRejectsUntypedPayload(t *testing.T) {
	ln, errCh := serveAsync(t, 1)
	node, err := Dial(ln.Addr().String(), 0, 1, 0, codec.FullRegistry(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	_, err = node.RunProtocol(func(env sim.Env, input int) (int, error) {
		env.Exchange([]sim.Message{sim.Msg(0, 0, untypedPayload{})})
		return 0, nil
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "wire kind") {
		t.Fatalf("want wire-kind error, got %v", err)
	}
	// Unblock the coordinator (it is still waiting for our frame).
	node.Close()
	<-errCh
}

// TestRawPayloadBitLenMatchesEncode is transport's row of the wire
// package's TestBitLenMatchesEncode table: the coordinator accounts an
// undecoded frame at its raw length, empty frame included.
func TestRawPayloadBitLenMatchesEncode(t *testing.T) {
	frame := wire.EncodeFrame(nil, floodset.SetMsg{Has0: true})
	for _, p := range []rawPayload{frame, {}, nil} {
		if got, want := wire.BitLen(p), int64(8*len(wire.Encode(p))); got != want || want != int64(8*len(p)) {
			t.Errorf("BitLen(rawPayload of %d bytes) = %d, Encode gives %d bits", len(p), got, want)
		}
	}
}
