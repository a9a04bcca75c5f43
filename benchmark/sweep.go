package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"omicon/internal/adversary"
	"omicon/internal/core"
	"omicon/internal/experiments"
	"omicon/internal/graph"
	"omicon/internal/sim"
)

// sweep-n256 is one experiments.Thm1Detailed call at n=256 over the full
// nine-family portfolio, samples spread over a partrial pool.
const (
	sweepN = 256
	sweepT = (sweepN - 1) / 31
	// sweepFamilyCount is the size of the portfolio Thm1Detailed builds:
	// adversary.Registry plus the eclipse strategy.
	sweepFamilyCount = 9
	// sweepTracedSeeds is the prefix the traced pass covers: Thm1Detailed
	// derives a sample's seed from its seed index alone, so a call with
	// fewer seeds runs the same samples as the low indices of a larger one.
	sweepTracedSeeds = 1
)

// sweepSeeds is the seeds-per-family count: four seeds are 36 samples,
// about twelve seconds on the 2-core reference box.
func sweepSeeds(seconds int) int { return scaled(4, seconds) }

type sweepInstance struct {
	rc    *runCtx
	seeds int
}

func setupSweep(rc *runCtx) (instance, error) {
	params, err := core.Prepare(sweepN, sweepT)
	if err != nil {
		return nil, err
	}
	if got := len(sweepPortfolio(params, 0)); got != sweepFamilyCount {
		return nil, fmt.Errorf("sweep portfolio has %d families, the benchmark assumes %d", got, sweepFamilyCount)
	}
	if err := warmUp(0); err != nil {
		return nil, err
	}
	return &sweepInstance{rc: rc, seeds: sweepSeeds(rc.seconds)}, nil
}

// sweepPortfolio builds the portfolio the way RunThm1Job does, from the
// same exported constructors.
func sweepPortfolio(params core.Params, baseSeed uint64) []sim.Adversary {
	advs := adversary.Registry(params.N, params.T, baseSeed)
	return append(advs, adversary.NewEclipse(params.Graph, params.T, params.N/10))
}

func sweepBaseSeed(seed uint64) uint64 { return derive(seed, "sweep-base", 0) }

// runSweep runs the sweep and packs its cell. Thm1Detailed checks
// consensus on every sample and fails as a whole, so an error fails
// every op.
func runSweep(seed uint64, seeds, workers int, remote func(context.Context, experiments.Thm1Job) (experiments.SweepSample, error)) *passResult {
	pr := &passResult{ops: sweepFamilyCount * seeds}
	cells, err := experiments.Thm1Detailed([]int{sweepN}, seeds, sweepBaseSeed(seed),
		experiments.Exec{Workers: workers, RemoteThm1: remote})
	if err != nil {
		pr.failAll(err)
		return pr
	}
	for i, s := range cells[0].Samples { // adversary-major, seeds within
		pr.rows = append(pr.rows, costRow{
			Op:   fmt.Sprintf("n%d/%s/seed%d", sweepN, s.Adversary, i%seeds),
			N:    sweepN,
			Rep:  i % seeds,
			cost: cost{Rounds: s.Rounds, CommBits: s.CommBits, RandBits: s.RandBits},
		})
	}
	b, err := json.Marshal(cells)
	if err != nil {
		pr.failAll(err)
		return pr
	}
	pr.digest = digestOf(b)
	return pr
}

func (in *sweepInstance) pass() (*passResult, error) {
	return runSweep(in.rc.seed, in.seeds, in.rc.nproc, nil), nil
}

func (in *sweepInstance) verify(*passResult) []string { return nil }
func (in *sweepInstance) close()                      {}

// spreadInputs is experiments' (unexported) input vector: ones spread
// evenly over the id space. The decorated re-execution needs the same
// inputs to land on the same costs; if the two drift apart, the cost
// comparison says so.
func spreadInputs(n, ones int) []int {
	in := make([]int, n)
	acc := 0
	for i := range in {
		acc += ones
		if acc >= n {
			acc -= n
			in[i] = 1
		}
	}
	return in
}

// reexecThm1Job runs a sweep sample through sim.Run with decorators,
// built from the same exported constructors as experiments.RunThm1Job.
// It returns the result and the adversary's name.
func reexecThm1Job(job experiments.Thm1Job, lt *layerTrace) (*sim.Result, string, error) {
	params, err := core.Prepare(job.N, (job.N-1)/31)
	if err != nil {
		return nil, "", err
	}
	adv := sweepPortfolio(params, job.BaseSeed)[job.AdvIdx]
	res, err := sim.Run(sim.Config{
		N: params.N, T: params.T,
		Inputs:    spreadInputs(params.N, params.N/2),
		Seed:      job.BaseSeed + uint64(job.SeedIdx)*101,
		Adversary: lt.adversary(adv),
		MaxRounds: params.TotalRoundsBound() + 64,
		Shards:    job.Shards,
	}, lt.protocol(core.Protocol(params)))
	return res, adv.Name(), err
}

// layersSweep is the traced pass over seed index 0 of every family: the
// sweep with a timing hook on RunThm1Job, each sample re-executed with
// decorators right after (outside the pass's clock), and before either
// the same prefix undecorated on every core for partrial.speedup.
func layersSweep(rc *runCtx) (map[string]float64, *passResult, error) {
	m := make(map[string]float64)
	m["core.prepare_s"] = timeRepeated(nil, func() { _, _ = core.Prepare(sweepN, sweepT) }).Seconds()
	m["graph.build_s"] = timeRepeated(nil, func() { _, _ = graph.Build(sweepN, graph.PracticalParams(sweepN)) }).Seconds()
	if err := warmUp(0); err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	par := runSweep(rc.seed, sweepTracedSeeds, rc.nproc, nil)
	parWall := time.Since(t0)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	// One worker: the hook runs on the calling goroutine, sample by sample.
	var reexecWall time.Duration
	agg := newLayerTrace(rc.rec, -1, "")
	var aggCost cost
	var engineRounds float64
	var mismatches []string
	passID := rc.rec.begin(-1, "", "experiments.pass")
	hook := func(_ context.Context, job experiments.Thm1Job) (experiments.SweepSample, error) {
		key := fmt.Sprintf("n%d/adv%d/base%d", job.N, job.AdvIdx, job.BaseSeed)
		id := rc.rec.begin(passID, key, "experiments.sample")
		s, err := experiments.RunThm1Job(job)
		rc.rec.end(id)
		if err != nil {
			return s, err
		}
		rs := time.Now()
		opID := rc.rec.begin(passID, key, "reexec")
		lt := newLayerTrace(rc.rec, opID, key)
		res, name, rerr := reexecThm1Job(job, lt)
		rc.rec.end(opID)
		reexecWall += time.Since(rs)
		if rerr != nil {
			mismatches = append(mismatches, fmt.Sprintf("%s: re-execution: %v", key, rerr))
			return s, nil
		}
		c := resultCost(res)
		if c.Rounds != s.Rounds || c.CommBits != s.CommBits || c.RandBits != s.RandBits {
			mismatches = append(mismatches, fmt.Sprintf("%s: re-execution cost %+v, driver %+v", key, c, s))
			return s, nil
		}
		if k := "adversary." + name + ".step_ns_per_msg"; isPerLayer(k) {
			m[k] = float64(lt.advStep.Nanoseconds()) / float64(max(c.Msgs, 1))
		}
		agg.absorb(lt)
		aggCost = aggCost.add(c)
		engineRounds += float64(res.Metrics.Rounds)
		return s, nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	pr := runSweep(rc.seed, sweepTracedSeeds, 1, hook)
	wall := time.Since(t0) - reexecWall
	rc.rec.end(passID)
	runtime.ReadMemStats(&ms1)
	pr.failures = append(pr.failures, mismatches...)
	if par.digest != pr.digest {
		pr.failures = append(pr.failures, fmt.Sprintf("sweep cells differ between the parallel pass (%s) and the traced pass (%s)", par.digest, pr.digest))
	}

	// The pass span's children are the sample and re-execution spans, so
	// its self time is what the serial commit phase took.
	m["experiments.sample_s"] = totalTimes(rc.rec.spans)["experiments.sample"].Seconds()
	m["experiments.commit_s"] = selfTimes(rc.rec.spans)["experiments.pass"].Seconds()
	layerMetrics(m, agg, reexecWall, aggCost, engineRounds)
	m["traced.wall_s"] = wall.Seconds()
	m["sim.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["model.rand_bits"] = float64(sumRows(pr.rows).RandBits)
	m["partrial.speedup"] = wall.Seconds() / parWall.Seconds()
	return m, pr, nil
}
