package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// metricDef names one metric the benchmark reports. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the system sees, on every workload. Both
// rates are per second of the undecorated pass's plain wall. The timing
// bounds are as wide as the contract allows because this box's host time
// is that noisy (README.md has the measured spreads).
//
// ok_share is 1 - fail_share, the share of attempted ops that committed
// and passed every check: a metric must never read 0, and fail_share is 0
// on every healthy run. Its bound is below one op of the largest workload (1 in 3276).
//
// The model_* rows are simulated statistics (the paper's cost model):
// exact for a fixed seed, and compared for equality against
// model_costs.json by the full-suite command. Their bounds are not 0
// because the acceptance spread is taken across different seeds, where
// they legitimately differ. Random bits are not here: a metric must never
// read 0, and an n=1024 trial that never reaches a coin epoch draws none
// (torture outcomes carry no count at all). They are the per-layer
// model.rand_bits and a column of model_costs.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_mbit_per_s", "Mbit/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"mallocs_per_op", "count", "lower", 0.03},
	{"ok_share", "ratio", "higher", 0.0001},
	{"model_rounds", "rounds", "lower", 0.02},
	{"model_comm_bits", "bits", "lower", 0.05},
}

// sweepFamilies are the adversary families of the Theorem-1 portfolio
// that get a per-family step cost ("none" is never decorated).
var sweepFamilies = []string{
	"static-crash", "random-omission", "group-killer", "half-visibility",
	"split-vote", "delayed-strike", "chaos", "eclipse",
}

// perLayer lists the traced pass's metrics. README.md has the table of
// which end-to-end metric each should move, on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "traced.wall_s", Unit: "s", Better: "lower"},
		{Name: "traced.ops", Unit: "count", Better: "higher"},
		{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "decorator.self_s", Unit: "s", Better: "lower"},
		{Name: "model.rand_bits", Unit: "bits", Better: "lower"},

		{Name: "sim.self_s", Unit: "s", Better: "lower"},
		{Name: "sim.self_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "sim.self_share", Unit: "ratio", Better: "lower"},
		{Name: "sim.sort_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "sim.legality_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "sim.rounds", Unit: "rounds", Better: "lower"},
		{Name: "sim.msgs", Unit: "count", Better: "lower"},
		{Name: "sim.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.peak_rss_mb", Unit: "MB", Better: "lower"},

		{Name: "core.step_s", Unit: "s", Better: "lower"},
		{Name: "core.step_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "core.span.group-relay_s", Unit: "s", Better: "lower"},
		{Name: "core.span.spreading_s", Unit: "s", Better: "lower"},
		{Name: "core.span.decision-bcast_s", Unit: "s", Better: "lower"},
		{Name: "core.span.fallback_s", Unit: "s", Better: "lower"},
		{Name: "core.prepare_s", Unit: "s", Better: "lower"},
		{Name: "graph.build_s", Unit: "s", Better: "lower"},
		{Name: "torture.build_s", Unit: "s", Better: "lower"},

		{Name: "wire.bitlen_ns_per_payload", Unit: "ns", Better: "lower"},
		{Name: "wire.bitlen_share", Unit: "ratio", Better: "lower"},
		{Name: "wire.bits_per_msg", Unit: "bits", Better: "lower"},

		{Name: "adversary.step_s", Unit: "s", Better: "lower"},
		{Name: "adversary.step_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "adversary.drops", Unit: "count", Better: "lower"},
		{Name: "adversary.corruptions", Unit: "count", Better: "lower"},
	}
	for _, f := range sweepFamilies {
		defs = append(defs, metricDef{Name: "adversary." + f + ".step_ns_per_msg", Unit: "ns", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "experiments.sample_s", Unit: "s", Better: "lower"},
		metricDef{Name: "experiments.commit_s", Unit: "s", Better: "lower"},

		metricDef{Name: "torture.execute_s", Unit: "s", Better: "lower"},
		metricDef{Name: "torture.commit_s", Unit: "s", Better: "lower"},
		metricDef{Name: "torture.trial_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "torture.trial_p95_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "torture.determinism_reruns", Unit: "count", Better: "lower"},

		metricDef{Name: "tournament.execute_s", Unit: "s", Better: "lower"},
		metricDef{Name: "tournament.commit_s", Unit: "s", Better: "lower"},
		metricDef{Name: "tournament.cells", Unit: "count", Better: "higher"},

		metricDef{Name: "partrial.speedup", Unit: "ratio", Better: "higher"},

		metricDef{Name: "trace.events", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.emit_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.events_per_op", Unit: "count", Better: "lower"},

		metricDef{Name: "journal.append_us", Unit: "us", Better: "lower"},
		metricDef{Name: "journal.bytes_per_op", Unit: "bytes", Better: "lower"},
		metricDef{Name: "journal.open_s", Unit: "s", Better: "lower"},
		metricDef{Name: "journal.replay_ops_per_s", Unit: "1/s", Better: "higher"},

		metricDef{Name: "distrib.dispatch_us_p50", Unit: "us", Better: "lower"},
		metricDef{Name: "distrib.dispatch_us_p99", Unit: "us", Better: "lower"},
		metricDef{Name: "distrib.job_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "distrib.result_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "distrib.redispatched", Unit: "count", Better: "lower"},
		metricDef{Name: "distrib.local_runs", Unit: "count", Better: "lower"},
	)
}()

// cost is the paper's cost model for one op or a sum of ops.
type cost struct {
	Rounds   int64 `json:"rounds"`
	CommBits int64 `json:"commBits"`
	RandBits int64 `json:"randBits"`
	Msgs     int64 `json:"-"`
}

func (c cost) add(o cost) cost {
	return cost{c.Rounds + o.Rounds, c.CommBits + o.CommBits, c.RandBits + o.RandBits, c.Msgs + o.Msgs}
}

// costRow is one row of the model-cost table: a single op where ops are
// few, one matrix cell's sum in a campaign. N is the system size when the
// row has one (0 for sums over mixed sizes). Rep is the replicate of the
// workload's experiment the row belongs to (typicalCost).
type costRow struct {
	Op  string `json:"op"`
	N   int    `json:"n,omitempty"`
	Rep int    `json:"rep,omitempty"`
	cost
}

// envelope returns the row's costs as shares of the paper's Theorem-1
// envelopes, rounds/(sqrt(n) lg^2 n) and commBits/(n^2 lg^3 n).
func (r costRow) envelope() (rounds, comm float64, ok bool) {
	if r.N < 2 {
		return 0, 0, false
	}
	n, lg := float64(r.N), math.Log2(float64(r.N))
	return float64(r.Rounds) / (math.Sqrt(n) * lg * lg), float64(r.CommBits) / (n * n * lg * lg * lg), true
}

func sumRows(rows []costRow) cost {
	var c cost
	for _, r := range rows {
		c = c.add(r.cost)
	}
	return c
}

// typicalCost is what model_rounds and model_comm_bits report: the rows
// summed per replicate, the median replicate scaled by their number. With
// one replicate — every workload but sweep-n256 — that is the plain sum.
// The sweep's replicates are its seed indices: all nine families of one
// index share the trial seed and with it the protocol's coin, and a few
// trial seeds in a hundred need an extra epoch (+34 % rounds, +60 % bits
// on a quarter of the ops). A plain sum over four indices is therefore
// bimodal across -seed values, and no bound that means anything holds it;
// the median replicate drops that tail from the metric. It stays in
// sim_mbit_per_s, which divides the plain sum by the wall those bits
// took, and in the golden table, which holds every op.
func typicalCost(rows []costRow) cost {
	byRep := make(map[int]cost)
	for _, r := range rows {
		byRep[r.Rep] = byRep[r.Rep].add(r.cost)
	}
	var rounds, bits []float64
	for _, c := range byRep {
		rounds, bits = append(rounds, float64(c.Rounds)), append(bits, float64(c.CommBits))
	}
	k := float64(len(byRep))
	return cost{Rounds: int64(median(rounds) * k), CommBits: int64(median(bits) * k)}
}

// cellRows folds per-trial costs into one row per key, ascending by key.
func cellRows(keys []string, costs []cost) []costRow {
	byKey := make(map[string]cost)
	for i, k := range keys {
		byKey[k] = byKey[k].add(costs[i])
	}
	rows := make([]costRow, 0, len(byKey))
	for k, c := range byKey {
		rows = append(rows, costRow{Op: k, cost: c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Op < rows[j].Op })
	return rows
}

// derive returns an independent 64-bit seed for item i of a named stream
// (SplitMix64 over the run seed): every trial seed and input vector the
// benchmark hands to the program comes from -seed through here.
func derive(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := seed ^ h.Sum64()
	z += uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// balancedInputs returns n input bits with exactly n/2 ones at positions
// drawn from seed. Keeping the count fixed keeps the work per trial
// steady across seeds; the positions are what the seed varies.
func balancedInputs(n int, seed uint64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(derive(seed, "perm", i) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	in := make([]int, n)
	for _, p := range perm[:n/2] {
		in[p] = 1
	}
	return in
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
