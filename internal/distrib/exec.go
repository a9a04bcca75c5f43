package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"omicon/internal/experiments"
	"omicon/internal/torture"
)

// Executor kinds. A kind names a serialized job format plus the function
// that executes it; coordinator and workers must agree on the set.
const (
	// KindTortureTrial carries a JSON torture.Job and returns a JSON
	// torture.Outcome.
	KindTortureTrial = "torture-trial/v1"
	// KindThm1Sample carries a JSON experiments.Thm1Job and returns a
	// JSON experiments.SweepSample.
	KindThm1Sample = "sweep-thm1-sample/v1"
)

// ExecFunc executes one serialized job and returns its serialized result.
type ExecFunc func(payload []byte) ([]byte, error)

// Executors maps job kinds to executor functions. The same registry
// serves worker processes (cmd/worker) and the pool's in-process
// fallback paths (degradation, poison quarantine), so every execution
// route runs identical code.
type Executors struct {
	m map[string]ExecFunc
}

// NewExecutors returns an empty registry.
func NewExecutors() *Executors { return &Executors{m: make(map[string]ExecFunc)} }

// Register adds an executor for kind; duplicate registration panics (a
// build-time mistake, mirroring wire.Registry.Register).
func (e *Executors) Register(kind string, fn ExecFunc) {
	if _, dup := e.m[kind]; dup {
		panic(fmt.Sprintf("distrib: duplicate executor kind %q", kind))
	}
	e.m[kind] = fn
}

// Run executes one job by kind.
func (e *Executors) Run(kind string, payload []byte) ([]byte, error) {
	fn, ok := e.m[kind]
	if !ok {
		return nil, fmt.Errorf("distrib: unknown job kind %q", kind)
	}
	return fn(payload)
}

// StandardExecutors returns the registry every stock worker and pool
// uses: torture trials and Theorem-1 sweep samples.
func StandardExecutors() *Executors {
	e := NewExecutors()
	e.Register(KindTortureTrial, func(payload []byte) ([]byte, error) {
		var job torture.Job
		if err := json.Unmarshal(payload, &job); err != nil {
			return nil, fmt.Errorf("distrib: decoding torture job: %w", err)
		}
		out, err := torture.ExecuteJob(job)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	})
	e.Register(KindThm1Sample, func(payload []byte) ([]byte, error) {
		var job experiments.Thm1Job
		if err := json.Unmarshal(payload, &job); err != nil {
			return nil, fmt.Errorf("distrib: decoding thm1 job: %w", err)
		}
		s, err := experiments.RunThm1Job(job)
		if err != nil {
			return nil, err
		}
		return json.Marshal(s)
	})
	return e
}

// remote is the one marshal -> Execute -> unmarshal adapter behind every
// driver hook: job is serialized, dispatched under id (with re-dispatch,
// quarantine and degradation handled by the pool), and the result
// deserialized into out for the campaign's serial commit path.
func remote[J, R any](ctx context.Context, p *Pool, id, kind string, job J, out *R) (quarantined bool, err error) {
	payload, err := json.Marshal(job)
	if err != nil {
		return false, fmt.Errorf("distrib: encoding %s job: %w", kind, err)
	}
	res, err := p.Execute(ctx, id, kind, payload)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(res.Payload, out); err != nil {
		return false, fmt.Errorf("distrib: decoding %s result: %w", kind, err)
	}
	return res.Quarantined, nil
}

// TortureRemote adapts a Pool into torture.Options.Remote (and
// tournament.Options.Remote, which has the same shape).
func TortureRemote(p *Pool) func(ctx context.Context, job torture.Job) (*torture.Outcome, error) {
	return func(ctx context.Context, job torture.Job) (*torture.Outcome, error) {
		out := &torture.Outcome{}
		quarantined, err := remote(ctx, p, fmt.Sprintf("trial-%d", job.Trial), KindTortureTrial, job, out)
		if err != nil {
			return nil, err
		}
		out.Quarantined = quarantined
		return out, nil
	}
}

// Thm1Remote adapts a Pool into experiments.Exec.RemoteThm1.
func Thm1Remote(p *Pool) func(ctx context.Context, job experiments.Thm1Job) (experiments.SweepSample, error) {
	return func(ctx context.Context, job experiments.Thm1Job) (s experiments.SweepSample, err error) {
		id := fmt.Sprintf("thm1-n%d-a%d-s%d", job.N, job.AdvIdx, job.SeedIdx)
		_, err = remote(ctx, p, id, KindThm1Sample, job, &s)
		return s, err
	}
}

// errPoolClosed aborts Execute calls once the pool is shut down.
var errPoolClosed = errors.New("distrib: pool closed")
