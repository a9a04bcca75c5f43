package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// The flight recorder StartPlane builds keeps ringSize entries and samples
// the registry every sampleEvery.
const (
	ringSize    = 4096
	sampleEvery = 250 * time.Millisecond
)

// PlaneOptions configures StartPlane, the one-call telemetry stack every
// long-running CLI starts behind its -status-addr / -flightrec flags.
type PlaneOptions struct {
	// Program names the process on /statusz ("torture", "worker", ...).
	Program string
	// Addr is the -status-addr value; "" starts no HTTP server.
	Addr string
	// FlightRec is the SIGQUIT dump path; "" disables the signal handler.
	// With both Addr and FlightRec empty nothing could read the flight
	// recorder, so none is built.
	FlightRec string
	// Campaign and Workers feed /statusz; each may be nil and is called
	// per request, so closures over state created after StartPlane (a
	// late-bound pool pointer, say) work as long as they nil-check.
	Campaign func() *CampaignStatus
	Workers  func() []WorkerStatus
	// Log receives one "status: serving ..." line when the server binds.
	// Nil discards it.
	Log io.Writer
}

// Plane is a process's running telemetry stack: the registry subsystems
// register their metrics on, the flight recorder sampling it (when
// something can read it), and (when requested) the HTTP status server.
// Strictly observational — campaign artifacts are byte-identical with or
// without a plane.
type Plane struct {
	Reg     *Registry
	Rec     *Recorder // nil unless Addr or FlightRec was set
	Addr    string    // bound server address, "" when Addr was empty
	started time.Time
	srv     *http.Server
	stops   []func()
}

// StartPlane builds the registry and, when o.Addr or o.FlightRec is set,
// the flight recorder with its delta sampling; installs the SIGQUIT dump
// handler for o.FlightRec; and serves /statusz, /flightrecz and
// /debug/pprof on o.Addr. Close undoes all of it.
func StartPlane(o PlaneOptions) (*Plane, error) {
	p := &Plane{Reg: NewRegistry(), started: time.Now()}
	if o.Addr != "" || o.FlightRec != "" {
		p.Rec = NewRecorder(ringSize)
		p.stops = append(p.stops, p.Rec.Start(p.Reg, sampleEvery))
	}
	if o.FlightRec != "" {
		p.stops = append(p.stops, InstallSIGQUIT(p.Rec, o.FlightRec))
	}
	if o.Addr != "" {
		status := func() *Statusz {
			s := BaseStatusz(o.Program, p.started)
			if o.Campaign != nil {
				s.Campaign = o.Campaign()
			}
			if o.Workers != nil {
				s.Workers = o.Workers()
			}
			s.Metrics = p.Reg.Snapshot()
			return s
		}
		srv, bound, err := StartServer(o.Addr, ServerOptions{Status: status, Recorder: p.Rec})
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("status server: %w", err)
		}
		p.srv, p.Addr = srv, bound
		if o.Log != nil {
			fmt.Fprintf(o.Log, "status: serving /statusz /flightrecz /debug/pprof on http://%s\n", bound)
		}
	}
	return p, nil
}

// Elapsed is the time since the plane started — the denominator for
// CampaignStatus.FillRate.
func (p *Plane) Elapsed() time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(p.started)
}

// Close stops sampling, uninstalls the SIGQUIT handler and shuts the
// status server down. Nil-safe.
func (p *Plane) Close() {
	if p == nil {
		return
	}
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
	for _, stop := range p.stops {
		stop()
	}
	p.stops = nil
}
