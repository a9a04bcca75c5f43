package transport

import (
	"fmt"
	"net/http"
	"time"

	"omicon/internal/telemetry"
)

// startDebugServer binds addr and serves the coordinator's observability
// endpoints for the duration of one run — the shared status mux
// (telemetry.StartServer) the campaign CLIs mount:
//
//	/statusz      — JSON status whose metrics carry the wire-level counters
//	                plus live round/active/corrupted gauges
//	/debug/pprof  — the standard Go profiling endpoints
//
// The values are GaugeFuncs read from atomic state at request time, so
// they are safe concurrently with the Serve goroutine; counter snapshots
// taken mid-run may be torn across fields (see metrics.Counters.Snapshot),
// which is acceptable for monitoring. The mux is private — the
// process-global http.DefaultServeMux is left untouched.
func (c *Coordinator) startDebugServer(addr string) (*http.Server, string, error) {
	reg := telemetry.NewRegistry()
	for _, m := range []struct {
		name, help string
		v          func() int64
	}{
		{"omicon_rounds_total", "Completed synchronous communication rounds.", func() int64 { return c.counters.Snapshot().Rounds }},
		{"omicon_messages_total", "Point-to-point messages observed on the wire.", func() int64 { return c.counters.Snapshot().Messages }},
		{"omicon_comm_bits_total", "Total bits of all sent messages.", func() int64 { return c.counters.Snapshot().CommBits }},
		{"omicon_crashes_total", "Node failures absorbed as in-model faults.", func() int64 { return c.counters.Snapshot().Crashes }},
		{"omicon_retries_total", "Reconnect adoptions after broken connections.", func() int64 { return c.counters.Snapshot().Retries }},
		{"omicon_live_round", "Round currently at or past the barrier.", c.liveRound.Load},
		{"omicon_live_active", "Nodes still participating.", c.liveActive.Load},
		{"omicon_live_corrupted", "Adversary budget consumed (corrupted processes).", c.liveCorrupted.Load},
	} {
		reg.GaugeFunc(m.name, m.help, func() float64 { return float64(m.v()) })
	}
	started := time.Now()
	srv, bound, err := telemetry.StartServer(addr, telemetry.ServerOptions{
		Status: func() *telemetry.Statusz {
			s := telemetry.BaseStatusz("coordinator", started)
			s.Metrics = reg.Snapshot()
			return s
		},
	})
	if err != nil {
		return nil, "", fmt.Errorf("transport: debug listener: %w", err)
	}
	return srv, bound, nil
}
