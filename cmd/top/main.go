// Command top renders a refreshing one-screen view of a running
// campaign from its coordinator's /statusz endpoint (cmd/torture,
// cmd/tournament or cmd/paper started with -status-addr; see
// docs/OBSERVABILITY.md):
// campaign progress with rate and ETA, and the per-worker table with
// heartbeat ages, in-flight jobs and piggybacked job counts.
//
//	top -addr 127.0.0.1:9090
//	top -addr 127.0.0.1:9090 -once   # single snapshot, no screen clearing
//
// Exit status: 0 on a clean -once snapshot or interrupt, 1 when the
// endpoint cannot be reached (after the first successful poll, transient
// errors are shown in-screen instead), 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"omicon/internal/telemetry"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "top:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		addr     = flag.String("addr", "", "coordinator status address (host:port of -status-addr)")
		interval = flag.Duration("interval", time.Second, "poll and refresh cadence")
		once     = flag.Bool("once", false, "print a single snapshot and exit")
	)
	flag.Parse()
	if *addr == "" || flag.NArg() != 0 {
		flag.Usage()
		return 2, fmt.Errorf("-addr is required")
	}
	url := "http://" + *addr + "/statusz"
	client := &http.Client{Timeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *once {
		s, err := poll(ctx, client, url)
		if err != nil {
			return 1, err
		}
		fmt.Print(render(s, ""))
		return 0, nil
	}

	// ANSI home+clear-to-end repaints in place without flicker; the
	// first successful poll proves the endpoint before entering the loop.
	connected := false
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		s, err := poll(ctx, client, url)
		switch {
		case err != nil && !connected:
			return 1, err
		case err != nil:
			fmt.Print("\x1b[H\x1b[2J" + render(nil, fmt.Sprintf("poll %s: %v", url, err)))
		default:
			connected = true
			fmt.Print("\x1b[H\x1b[2J" + render(s, ""))
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return 0, nil
		case <-ticker.C:
		}
	}
}

func poll(ctx context.Context, client *http.Client, url string) (*telemetry.Statusz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var s telemetry.Statusz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /statusz: %w", err)
	}
	return &s, nil
}

// render builds the one-screen view. Pure — the poll loop and tests both
// feed it documents and compare strings.
func render(s *telemetry.Statusz, errLine string) string {
	var b strings.Builder
	if errLine != "" {
		fmt.Fprintf(&b, "omicon top — %s\n", errLine)
	}
	if s == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "omicon top — %s pid %d, up %s\n", s.Program, s.PID, fmtDuration(s.UptimeSeconds))
	if c := s.Campaign; c != nil {
		fmt.Fprintf(&b, "\n%s: %d/%d done", c.Kind, c.TrialsDone, c.TrialsTotal)
		if c.TrialsTotal > 0 {
			fmt.Fprintf(&b, " (%.0f%%)", 100*float64(c.TrialsDone)/float64(c.TrialsTotal))
		}
		if c.RatePerSecond > 0 {
			fmt.Fprintf(&b, ", %.1f/s", c.RatePerSecond)
		}
		if c.EtaSeconds > 0 {
			fmt.Fprintf(&b, ", ETA %s", fmtDuration(c.EtaSeconds))
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  violations %d  failed %d  quarantined %d  resumed %d\n",
			c.Violations, c.FailedTrials, c.Quarantined, c.Resumed)
	}
	if len(s.Workers) > 0 {
		ws := append([]telemetry.WorkerStatus(nil), s.Workers...)
		sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
		fmt.Fprintf(&b, "\n%-4s %-16s %-6s %10s %7s %9s  %s\n",
			"ID", "WORKER", "STATE", "HEARTBEAT", "BEATS", "JOBS", "IN-FLIGHT")
		for _, w := range ws {
			state := "alive"
			if w.Stale {
				state = "stale"
			} else if !w.Alive {
				state = "gone"
			}
			fmt.Fprintf(&b, "%-4d %-16s %-6s %9dms %7d %9d  %s\n",
				w.ID, w.Name, state, w.HeartbeatAgeMillis, w.Beats, w.JobsDone, w.InFlight)
		}
	}
	return b.String()
}

func fmtDuration(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Second).String()
}
