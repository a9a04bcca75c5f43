// Command worker is a campaign trial worker: it connects to a
// coordinator (cmd/torture, cmd/tournament or cmd/paper with -listen),
// executes the trials it is handed through the standard executor
// registry, and streams results back, heartbeating so the coordinator
// detects a crash by deadline. Reconnects use bounded exponential backoff with jitter;
// -connect-file re-reads the address every attempt so a restarted
// coordinator on a fresh port is found (docs/DISTRIBUTED.md).
//
// Exit codes: 0 clean shutdown (coordinator goodbye), 1 the reconnect
// budget was exhausted, 2 usage errors, 130 interrupted by
// SIGINT/SIGTERM (matching the other long-running CLIs).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"omicon/internal/distrib"
	"omicon/internal/telemetry"
)

func main() {
	var (
		connect     = flag.String("connect", "", "coordinator address (host:port)")
		connectFile = flag.String("connect-file", "", "file holding the coordinator address, re-read on every attempt (written by -addr-file)")
		name        = flag.String("name", "", "worker name in coordinator diagnostics (default <hostname>-<pid>)")
		retries     = flag.Int("retries", 0, "max consecutive failed connection attempts before giving up (default 30)")
		retryBase   = flag.Duration("retry-base", 0, "reconnect backoff base (default 100ms, exponential with jitter)")
		retryCap    = flag.Duration("retry-cap", 0, "reconnect backoff cap (default 2s)")
		quiet       = flag.Bool("q", false, "suppress diagnostics")
		statusAddr  = flag.String("status-addr", "", "serve /statusz, /flightrecz and /debug/pprof on this address (docs/OBSERVABILITY.md)")
		flightRec   = flag.String("flightrec", "", "dump the flight-recorder ring to this JSONL file on SIGQUIT")
	)
	flag.Parse()
	if (*connect == "") == (*connectFile == "") {
		fmt.Fprintln(os.Stderr, "worker: exactly one of -connect or -connect-file is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	// The worker's plane backs its own -status-addr endpoints and the
	// snapshot it piggybacks on heartbeats for its row on the
	// coordinator's /statusz (docs/OBSERVABILITY.md).
	plane, err := telemetry.StartPlane(telemetry.PlaneOptions{
		Program: "worker", Addr: *statusAddr, FlightRec: *flightRec, Log: logw,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(2)
	}
	defer plane.Close()
	opts := distrib.WorkerOptions{
		Name:      *name,
		RetryMax:  *retries,
		RetryBase: *retryBase,
		RetryCap:  *retryCap,
		Log:       logw,
		Telemetry: plane.Reg,
	}
	addr := *connect
	if *connectFile != "" {
		opts.Resolve = distrib.ResolveFile(*connectFile)
		// Give the resolver a generous dial budget by default: the
		// address file may not even exist until the coordinator binds.
		if opts.RetryBase == 0 {
			opts.RetryBase = 100 * time.Millisecond
		}
	}
	if err := distrib.RunWorker(ctx, addr, distrib.StandardExecutors(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		os.Exit(130)
	}
}
