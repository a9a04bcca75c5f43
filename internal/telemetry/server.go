package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerOptions configures the shared status server every long-running
// CLI mounts behind -status-addr (and the transport coordinator behind
// -debug-addr).
type ServerOptions struct {
	// Status builds the /statusz document per request; its Metrics
	// carries the process's registry snapshot.
	Status func() *Statusz
	// Recorder, when set, mounts /flightrecz serving the current ring
	// contents as JSONL.
	Recorder *Recorder
}

// NewMux builds the status mux: /statusz (JSON), /flightrecz
// (flight-recorder JSONL) and the pprof handlers under /debug/pprof/.
func NewMux(opts ServerOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(opts.Status())
	})
	if opts.Recorder != nil {
		mux.HandleFunc("/flightrecz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/jsonl")
			opts.Recorder.WriteJSONL(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartServer binds addr (":0" picks a free port) and serves the status
// mux on it in a background goroutine. It returns the server and the
// bound address; callers Close the server on shutdown.
func StartServer(addr string, opts ServerOptions) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: NewMux(opts), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
