// Command netdemo runs consensus over real TCP connections instead of the
// in-memory simulator — the deployment shape of the library. It can play
// three roles:
//
//	netdemo -role local -n 12 -t 2 -algo earlystop -adversary static-crash
//	    spawns the coordinator and all nodes inside one process (loopback
//	    sockets), the quickest demonstration;
//	netdemo -role coordinator -listen :7000 -n 8 -t 1 -adversary group-killer
//	    runs the round-barrier/fault-injection server;
//	netdemo -role node -addr host:7000 -id 3 -n 8 -t 1 -algo phaseking -input 1
//	    runs one protocol node (one per process/machine).
//
// Failure handling is selected with -policy: "failfast" (default) aborts
// the run on the first node failure, "omission" absorbs failures as
// in-model omission faults and continues with the survivors. -grace
// enables mid-run reconnect/resume; -retries bounds node-side re-dials.
// The -chaos flag (with -chaos-reset/-delay/-split/-stall probabilities)
// injects seeded connection faults on every node connection, e.g.:
//
//	netdemo -role local -n 8 -t 2 -algo floodset -policy omission \
//	    -grace 500ms -retries 3 -chaos -chaos-reset 0.05 -chaos-delay 0.2
//
// Observability: -trace writes the coordinator's JSONL event stream (see
// docs/OBSERVABILITY.md), and -debug-addr serves /statusz (the wire
// counters and live gauges as its metrics) plus /debug/pprof for the
// duration of the run — the status mux the campaign commands mount:
//
//	netdemo -role local -n 8 -t 1 -algo phaseking \
//	    -trace run.trace.jsonl -debug-addr 127.0.0.1:8055
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"omicon"
	"omicon/internal/codec"
	"omicon/internal/core"
	"omicon/internal/earlystop"
	"omicon/internal/floodset"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
	"omicon/internal/trace"
	"omicon/internal/transport"
	"omicon/internal/transport/faultconn"
)

func main() {
	// SIGINT/SIGTERM shut the run down gracefully: the coordinator's
	// accept/round loops observe the canceled context, node connections
	// are closed, and the process exits 130 (matching the other CLIs).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "netdemo:", err)
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if ctx.Err() != nil {
		os.Exit(130)
	}
}

func run(ctx context.Context) error {
	var (
		role     = flag.String("role", "local", "local | coordinator | node")
		n        = flag.Int("n", 12, "number of processes")
		t        = flag.Int("t", 2, "fault budget")
		algoName = flag.String("algo", "earlystop", "phaseking | earlystop | floodset | optimal")
		advName  = flag.String("adversary", "none", "coordinator-side fault injector; the coordinator sees no inputs, snapshots or randomness, so split-vote, flood-split, delayed-strike, coin-hider, budget-schedule and late act blind")
		listen   = flag.String("listen", "127.0.0.1:0", "coordinator listen address")
		addr     = flag.String("addr", "", "node: coordinator address")
		id       = flag.Int("id", -1, "node: process id")
		input    = flag.Int("input", 0, "node: input bit")
		ones     = flag.Int("ones", -1, "local: number of 1-inputs (-1 = n/2)")
		seed     = flag.Uint64("seed", 42, "node randomness seed base")

		policy    = flag.String("policy", "failfast", "failure policy: failfast | omission")
		grace     = flag.Duration("grace", 0, "reconnect grace window (0 disables resume)")
		retries   = flag.Int("retries", 0, "node-side reconnect attempts after a broken connection")
		ioTmo     = flag.Duration("io-timeout", 30*time.Second, "per-frame I/O deadline")
		accTmo    = flag.Duration("accept-timeout", 30*time.Second, "coordinator wait for all HELLOs")
		debugAddr = flag.String("debug-addr", "", "coordinator: serve /statusz and /debug/pprof on this address for the run")
		traceFile = flag.String("trace", "", "coordinator: write a JSONL event trace to this file")

		chaos      = flag.Bool("chaos", false, "inject seeded faults on node connections")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault-injection seed")
		chaosReset = flag.Float64("chaos-reset", 0.02, "per-op connection reset probability")
		chaosDelay = flag.Float64("chaos-delay", 0.2, "per-op delay probability")
		chaosSplit = flag.Float64("chaos-split", 0.2, "per-write split probability")
		chaosStall = flag.Float64("chaos-stall", 0.1, "per-read stall probability")
	)
	flag.Parse()

	pol, err := transport.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	coordOpts := transport.Options{
		Policy:         pol,
		IOTimeout:      *ioTmo,
		AcceptTimeout:  *accTmo,
		ReconnectGrace: *grace,
		DebugAddr:      *debugAddr,
		Ctx:            ctx,
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		sink := trace.NewJSONL(f)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "netdemo: trace:", err)
			}
		}()
		coordOpts.Trace = trace.New(sink)
	}
	nodeOpts := transport.NodeOptions{
		Timeout:  *ioTmo,
		RetryMax: *retries,
	}
	if *chaos {
		nodeOpts.Dialer = faultconn.Dialer(faultconn.Config{
			Seed:      *chaosSeed,
			ResetProb: *chaosReset,
			DelayProb: *chaosDelay,
			SplitProb: *chaosSplit,
			StallProb: *chaosStall,
		})
	}

	proto, maxRounds, err := buildProtocol(*algoName, *n, *t)
	if err != nil {
		return err
	}

	switch *role {
	case "coordinator":
		adv, err := omicon.ParseAdversary(*advName, *n, *t, *seed)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Printf("coordinator listening on %s for %d nodes (t=%d, adversary=%s, policy=%s)\n",
			ln.Addr(), *n, *t, adv.Name(), pol)
		coord := transport.NewCoordinator(*n, *t, adv, maxRounds)
		coord.SetOptions(coordOpts)
		res, err := coord.Serve(ln)
		printResult(res)
		return err

	case "node":
		if *addr == "" || *id < 0 {
			return fmt.Errorf("node role needs -addr and -id")
		}
		node, err := transport.DialOpts(*addr, *id, *n, *t, codec.FullRegistry(), *seed, nodeOpts)
		if err != nil {
			return err
		}
		defer node.Close()
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				node.Close() // unblock RunProtocol's frame reads
			case <-done:
			}
		}()
		d, err := node.RunProtocol(proto, *input)
		if err != nil {
			return err
		}
		fmt.Printf("node %d decided %d (%s)\n", *id, d, node.Metrics())
		return nil

	case "local":
		if *ones < 0 {
			*ones = *n / 2
		}
		adv, err := omicon.ParseAdversary(*advName, *n, *t, *seed)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Printf("running %s over TCP loopback: n=%d t=%d adversary=%s policy=%s chaos=%v\n",
			*algoName, *n, *t, adv.Name(), pol, *chaos)

		coord := transport.NewCoordinator(*n, *t, adv, maxRounds)
		coord.SetOptions(coordOpts)
		type served struct {
			res *transport.CoordinatorResult
			err error
		}
		resCh := make(chan served, 1)
		go func() {
			res, serr := coord.Serve(ln)
			resCh <- served{res, serr}
		}()
		reg := codec.FullRegistry()
		nodeErrs := make([]error, *n)
		var wg sync.WaitGroup
		for p := 0; p < *n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				in := 0
				if p < *ones {
					in = 1
				}
				node, derr := transport.DialOpts(ln.Addr().String(), p, *n, *t, reg, *seed, nodeOpts)
				if derr != nil {
					nodeErrs[p] = derr
					return
				}
				defer node.Close()
				done := make(chan struct{})
				defer close(done)
				go func() {
					select {
					case <-ctx.Done():
						node.Close() // unblock RunProtocol's frame reads
					case <-done:
					}
				}()
				if _, rerr := node.RunProtocol(proto, in); rerr != nil {
					nodeErrs[p] = rerr
				}
			}(p)
		}
		wg.Wait()
		sv := <-resCh
		printResult(sv.res)
		if sv.err != nil {
			return sv.err
		}
		for p, nerr := range nodeErrs {
			if nerr == nil {
				continue
			}
			if pol == transport.FailAsOmission && sv.res != nil && sv.res.Crashed[p] {
				// The coordinator absorbed this failure as an in-model
				// fault; the node's own abort is expected collateral.
				fmt.Printf("node %d failed (absorbed as omission fault): %v\n", p, nerr)
				continue
			}
			return nerr
		}
		return nil

	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

func buildProtocol(name string, n, t int) (sim.Protocol, int, error) {
	switch name {
	case "phaseking":
		return func(env sim.Env, input int) (int, error) {
			return phaseking.Consensus(env, input)
		}, phaseking.Rounds(phaseking.DefaultPhases(t)) + 16, nil
	case "earlystop":
		return earlystop.Protocol(), earlystop.MaxRounds(t) + 16, nil
	case "floodset":
		return floodset.Protocol(), floodset.Rounds(t) + 16, nil
	case "optimal":
		p, err := core.Prepare(n, t)
		if err != nil {
			return nil, 0, err
		}
		return core.Protocol(p), p.TotalRoundsBound() + 64, nil
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q (netdemo supports phaseking, earlystop, floodset, optimal)", name)
	}
}

func printResult(res *transport.CoordinatorResult) {
	if res == nil {
		return
	}
	agree := true
	want := -1
	for p, d := range res.Decisions {
		if res.Corrupted[p] {
			continue
		}
		if want == -1 {
			want = d
		}
		if d != want {
			agree = false
		}
	}
	fmt.Printf("decisions   : %v\n", res.Decisions)
	fmt.Printf("outcomes    : %v\n", res.Outcomes)
	fmt.Printf("agreement   : %v (non-corrupted decided %d)\n", agree, want)
	fmt.Printf("wire metrics: %s\n", res.Metrics.Verbose())
	for _, f := range res.Failures {
		fmt.Printf("failure     : %s\n", f)
	}
}
