package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"omicon/internal/adversary"
	"omicon/internal/core"
	"omicon/internal/graph"
	"omicon/internal/sim"
)

// The two thm1 workloads run the same Theorem-1 trials — n=1024 at the
// maximal fault load t=(n-1)/31, balanced inputs, the group-killing
// adversary — through the two round engines. The trials are shaped like
// experiments.Thm1Trial, except that core.Prepare runs once in set-up and
// the inputs come from -seed.
const (
	thm1N = 1024
	thm1T = (thm1N - 1) / 31
)

// thm1Ops is the trial count. One n=1024 trial takes about nine seconds
// of one core on the 2-core reference box: the default engine runs two
// side by side, the sharded engine one after the other on both cores.
func thm1Ops(seconds int) int { return scaled(2, seconds) }

// warmUp is the fixed op every set-up ends with: a fault-free n=256
// Theorem-1 trial in the workload's engine mode, so lazy initialisation
// (goroutine stacks, arenas, the heap's first growth) is paid before
// anything is timed.
func warmUp(shards int) error {
	const n, t = 256, (256 - 1) / 31
	params, err := core.Prepare(n, t)
	if err != nil {
		return err
	}
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i % 2
	}
	res, err := sim.Run(sim.Config{
		N: n, T: t, Inputs: inputs, Seed: 1,
		MaxRounds: params.TotalRoundsBound() + 64, Shards: shards,
	}, core.Protocol(params))
	if err != nil {
		return fmt.Errorf("warm-up trial: %w", err)
	}
	if err := res.CheckConsensus(); err != nil {
		return fmt.Errorf("warm-up trial: consensus violated: %w", err)
	}
	return nil
}

type thm1Instance struct {
	rc     *runCtx
	shards int
	params core.Params
	ops    int
}

func setupThm1(shards int) func(rc *runCtx) (instance, error) {
	return func(rc *runCtx) (instance, error) {
		params, err := core.Prepare(thm1N, thm1T)
		if err != nil {
			return nil, err
		}
		if err := warmUp(shards); err != nil {
			return nil, err
		}
		return &thm1Instance{rc: rc, shards: shards, params: params, ops: thm1Ops(rc.seconds)}, nil
	}
}

// thm1Trial runs trial i of the workload. lt, when set, decorates the
// protocol and the adversary (the traced pass).
func thm1Trial(params core.Params, seed uint64, i, shards int, lt *layerTrace) (*sim.Result, error) {
	res, err := sim.Run(sim.Config{
		N: params.N, T: params.T,
		Inputs:    balancedInputs(params.N, derive(seed, "thm1-inputs", i)),
		Seed:      derive(seed, "thm1-trial", i),
		Adversary: lt.adversary(adversary.NewGroupKiller(params.N, params.T)),
		MaxRounds: params.TotalRoundsBound() + 64,
		Shards:    shards,
	}, lt.protocol(core.Protocol(params)))
	if err != nil {
		return nil, err
	}
	if err := res.CheckConsensus(); err != nil {
		return nil, fmt.Errorf("consensus violated: %w", err)
	}
	return res, nil
}

func resultCost(res *sim.Result) cost {
	return cost{
		Rounds:   int64(res.RoundsNonFaulty()),
		CommBits: res.Metrics.CommBits,
		RandBits: res.Metrics.RandomBits,
		Msgs:     res.Metrics.Messages,
	}
}

func thm1Key(i int) string { return fmt.Sprintf("n%d/group-killer/trial%d", thm1N, i) }

// resultBytes renders what a trial decided, for the digest.
func resultBytes(key string, res *sim.Result) []byte {
	return []byte(fmt.Sprintf("%s %v %v %v %v\n", key, res.Decisions, res.TerminatedAt, res.Corrupted, res.Metrics))
}

func (in *thm1Instance) pass() (*passResult, error) {
	// Closed loop: each worker starts its next trial when the previous
	// one returns. The default engine steps one trial on one core, so
	// trials run side by side; the sharded engine spreads one trial over
	// every core, so trials run one after another.
	workers := min(in.rc.nproc, in.ops)
	if in.shards != 0 {
		workers = 1
	}
	results := make([]*sim.Result, in.ops)
	errs := make([]error, in.ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= in.ops {
					return
				}
				results[i], errs[i] = thm1Trial(in.params, in.rc.seed, i, in.shards, nil)
			}
		}()
	}
	wg.Wait()

	pr := &passResult{ops: in.ops}
	var parts [][]byte
	for i := range results {
		key := thm1Key(i)
		if errs[i] != nil {
			pr.failures = append(pr.failures, fmt.Sprintf("%s: %v", key, errs[i]))
			continue
		}
		pr.rows = append(pr.rows, costRow{Op: key, N: thm1N, cost: resultCost(results[i])})
		parts = append(parts, resultBytes(key, results[i]))
	}
	pr.digest = digestOf(parts...)
	return pr, nil
}

func (in *thm1Instance) verify(*passResult) []string { return nil }
func (in *thm1Instance) close()                      {}

// layersThm1 is the traced pass: trial 0 decorated, then the same trial
// undecorated at the same settings. The second run is what the decorated
// costs must equal, and the ratio of the two walls is the tracing
// overhead.
func layersThm1(shards int) func(rc *runCtx) (map[string]float64, *passResult, error) {
	return func(rc *runCtx) (map[string]float64, *passResult, error) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)

		m := make(map[string]float64)
		m["core.prepare_s"] = timeRepeated(nil, func() { _, _ = core.Prepare(thm1N, thm1T) }).Seconds()
		m["graph.build_s"] = timeRepeated(nil, func() { _, _ = graph.Build(thm1N, graph.PracticalParams(thm1N)) }).Seconds()

		params, err := core.Prepare(thm1N, thm1T)
		if err != nil {
			return nil, nil, err
		}
		if err := warmUp(shards); err != nil {
			return nil, nil, err
		}
		key := thm1Key(0)
		pr := &passResult{ops: 1}

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		opID := rc.rec.begin(-1, key, "op")
		lt := newLayerTrace(rc.rec, opID, key)
		t0 := time.Now()
		traced, err := thm1Trial(params, rc.seed, 0, shards, lt)
		wall := time.Since(t0)
		rc.rec.end(opID)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			pr.failures = append(pr.failures, fmt.Sprintf("%s (traced): %v", key, err))
			return m, pr, nil
		}
		c := resultCost(traced)
		pr.rows = []costRow{{Op: key, N: thm1N, cost: c}}
		pr.digest = digestOf(resultBytes(key, traced))
		layerMetrics(m, lt, wall, c, float64(traced.Metrics.Rounds))
		m["sim.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

		t0 = time.Now()
		plain, err := thm1Trial(params, rc.seed, 0, shards, nil)
		plainWall := time.Since(t0)
		if err != nil {
			pr.failures = append(pr.failures, fmt.Sprintf("%s (undecorated): %v", key, err))
			return m, pr, nil
		}
		if pc := resultCost(plain); pc != c {
			pr.failures = append(pr.failures, fmt.Sprintf("%s: decorated run cost %+v, undecorated %+v", key, c, pc))
		}
		m["trace_overhead_ratio"] = wall.Seconds() / plainWall.Seconds()
		return m, pr, nil
	}
}

// layerMetrics fills the sim/core/adversary/wire split of one decorated
// execution (or one sample of them) that took wall in total. At
// GOMAXPROCS=1 protocol step, adversary step, the decorator's own
// bookkeeping and the engine never overlap, so the engine's self time is
// what is left of the wall.
func layerMetrics(m map[string]float64, lt *layerTrace, wall time.Duration, c cost, engineRounds float64) {
	msgs := float64(max(c.Msgs, 1))
	simSelf := wall - lt.protoStep - lt.advStep - lt.bookkeeping
	m["traced.wall_s"] = wall.Seconds()
	m["decorator.self_s"] = lt.bookkeeping.Seconds()
	m["model.rand_bits"] = float64(c.RandBits)
	m["sim.self_s"] = simSelf.Seconds()
	m["sim.self_ns_per_msg"] = float64(simSelf.Nanoseconds()) / msgs
	m["sim.self_share"] = simSelf.Seconds() / wall.Seconds()
	m["sim.rounds"] = engineRounds
	m["sim.msgs"] = float64(c.Msgs)
	m["sim.sort_ns_per_msg"] = lt.sortNsPerMsg()
	m["sim.legality_ns_per_msg"] = lt.legalityNsPerMsg()
	m["core.step_s"] = lt.protoStep.Seconds()
	m["core.step_ns_per_msg"] = float64(lt.protoStep.Nanoseconds()) / msgs
	for _, name := range lt.spanNames() {
		if k := "core.span." + name + "_s"; isPerLayer(k) {
			m[k] = lt.bySpan[name].Seconds()
		}
	}
	m["adversary.step_s"] = lt.advStep.Seconds()
	m["adversary.step_ns_per_msg"] = float64(lt.advStep.Nanoseconds()) / msgs
	m["adversary.drops"] = float64(lt.drops)
	m["adversary.corruptions"] = float64(lt.corruptions)
	bitlen := lt.bitlenNsPerPayload()
	m["wire.bitlen_ns_per_payload"] = bitlen
	m["wire.bitlen_share"] = bitlen * float64(c.Msgs) / float64(wall.Nanoseconds())
	m["wire.bits_per_msg"] = float64(c.CommBits) / msgs
}
