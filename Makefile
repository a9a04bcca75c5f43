GO ?= go

.PHONY: build test check soak vet loc experiments torture tournament tournament-smoke fuzz bench bench-smoke bench-pairs chaos-smoke distrib-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# loc prints ROADMAP.md's size metric: non-test Go lines outside benchmark/
# (a module of its own, contract-protected), internal packages, commands.
# Net-negative here is a success metric; record before/after in CHANGES.md.
loc:
	@echo "non-test Go lines: $$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs cat | wc -l)"
	@echo "internal packages: $$(git ls-files 'internal/*.go' | cut -d/ -f2 | sort -u | wc -l)"
	@echo "commands:          $$(git ls-files 'cmd/*/main.go' | wc -l)"

# check is the pre-merge gate: gofmt (any file it lists fails the gate),
# vet, the full suite under the race detector (transport reconnect/resume
# and the chaos soak are concurrent by construction), the allocation tests
# without it (they are //go:build !race: the detector allocates on its own
# behalf), the full-scale check of EXPERIMENTS.md's generated tables and
# the every-command smoke test (-short skips both), the unit tests of the
# benchmark (a module of its own, which ./... does not reach), then a
# deterministic torture smoke across the protocol x adversary matrix. Uses
# -short to keep the soak at its fast schedule count; run `make soak` for
# the full chaos sweep and `make torture` for a longer campaign.
check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race -short ./...
	$(GO) test -short -count=1 -run Alloc ./internal/...
	$(GO) test -count=1 -run TestExperimentsTablesCurrent ./cmd/paper
	$(GO) test -count=1 -run TestCommandSmoke .
	$(GO) test -C benchmark ./...
	$(GO) run -race ./cmd/torture -trials 50 -seed 1 -q

# experiments regenerates every measured table of EXPERIMENTS.md (the
# blocks between <!-- paper:ID --> markers) from a full-scale cmd/paper
# run, plus the -quick golden cmd/paper/testdata/quick.golden. Review the
# diff: a moved number usually means a moved model cost.
experiments:
	$(GO) test -count=1 ./cmd/paper -update

soak:
	$(GO) test -race -count=1 -run 'TestSoakChaosSchedules|TestKillMidRound|TestReconnectResume' ./internal/transport/...

# torture runs a longer randomized campaign, persisting and shrinking any
# counterexamples under .torture-corpus/.
torture:
	$(GO) run ./cmd/torture -trials 2000 -corpus .torture-corpus -shrink

# tournament runs the full cross-model matrix — every protocol x every
# adversary family over the (n, t) sweep — and writes the
# win/loss/round-cost matrix under tournament-out/ (docs/ADVERSARIES.md).
tournament:
	$(GO) run ./cmd/tournament -trials 3 -out tournament-out

# tournament-smoke is the race-enabled reduced matrix CI runs: the four
# zoo families plus the schedule fuzzer against a deterministic protocol
# and the known-broken separation exhibit, with the telemetry plane
# attached. Exit 0 requires zero unexpected losses.
tournament-smoke:
	$(GO) run -race ./cmd/tournament -trials 2 -seed 7 \
		-protocols phaseking,floodset \
		-adversaries late,eavesdrop,tree-cut,budget-schedule,sched-fuzz \
		-workers 2 -status-addr 127.0.0.1:0 -out .tournament-smoke

# bench runs the engine hot-path benchmarks interactively; pipe two runs
# through benchstat to compare. The committed timings live in benchmark/
# (BENCHMARK.json); allocations per round are pinned by the Alloc tests
# that `make check` runs.
bench:
	$(GO) test ./internal/sim/ -run '^$$' -bench 'EngineRound' -benchtime=100x -count=3

# bench-smoke runs every benchmark workload briefly, untraced and traced,
# and fails unless each run's last line reports "correct": true: the
# benchmark's own checks (artifact digests, equal model costs on
# re-execution, the decorated process Env of the traced pass) without its
# timing. The workload list is BENCHMARK.json's.
BENCH_WORKLOADS = thm1-n1024 thm1-n1024-sharded sweep-n256 torture-inproc torture-durable tournament-zoo
bench-smoke:
	@for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		echo "bench-smoke: $$w trace=$$t"; \
		last=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace $$t | tail -n 1); \
		case "$$last" in '{"correct": true'*) ;; *) echo "$$last"; exit 1 ;; esac; \
	done; done

# bench-pairs runs alternating pairs of one benchmark workload on a parent
# revision and on this checkout, one pair per seed, and compares them:
#
#   make bench-pairs W=sweep-n256 SEEDS="11 12 13 14 15" PARENT=HEAD~1
#
# PARENT is checked out under .bench-pairs/ and removed afterwards; which
# side runs first alternates seed by seed. Each run is 15 s untraced; its
# record lands in .bench-pairs/rec/, its output in .bench-pairs/log/, and
# each side's records are joined into .bench-pairs/{parent,change}.json.
W ?= sweep-n256
SEEDS ?= 11 12 13 14 15 16 17 18 19 20
PARENT ?= HEAD~1
BP = $(CURDIR)/.bench-pairs
bench-pairs:
	@rm -rf $(BP) && git worktree prune && mkdir -p $(BP)/rec $(BP)/log && \
	git worktree add --detach $(BP)/parent $(PARENT) && \
	trap 'git worktree remove --force $(BP)/parent' EXIT && \
	first=parent second=change && \
	for s in $(SEEDS); do \
		for side in $$first $$second; do \
			root=$(CURDIR); [ $$side = parent ] && root=$(BP)/parent; \
			echo "bench-pairs: $(W) seed $$s $$side"; \
			bash $$root/benchmark/run.sh --workload $(W) --seed $$s --seconds 15 --trace 0 \
				--out $(BP)/log/$$side-$$s --record $(BP)/rec/$$side-$$s.json \
				> $(BP)/log/$$side-$$s.txt || exit 1; \
		done; \
		t=$$first first=$$second second=$$t; \
	done && \
	for side in parent change; do \
		{ printf '{"runs":['; sep=; for f in $(BP)/rec/$$side-*.json; do printf '%s' "$$sep"; cat $$f; sep=,; done; printf ']}\n'; } > $(BP)/$$side.json; \
	done && \
	$(GO) run -C benchmark . -compare $(BP)/parent.json $(BP)/change.json

# fuzz runs every native fuzz target for a bounded stretch: mutated
# schedules through the replay adversary (engine must never panic, oracle
# must never cry wolf), the adversary zoo through record/strict-replay
# (every family must be deterministic and schedule-expressible), the
# transcript codec round trip (the corpus format must be stable), the
# bitset bulk ops the bit-packed hot path leans on (every op must agree
# with a map-of-ints model), journal recovery over damaged files (Open
# must never panic, reject, or lose pre-damage records) and the dispatch
# frame decoder (any frame that decodes must re-encode canonically — the
# property re-dispatch leans on).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBitsetOps -fuzztime 30s ./internal/bitset/
	$(GO) test -run '^$$' -fuzz FuzzScheduleReplay -fuzztime 30s ./internal/torture/
	$(GO) test -run '^$$' -fuzz FuzzAdversaryScheduleReplay -fuzztime 30s ./internal/torture/
	$(GO) test -run '^$$' -fuzz FuzzTranscriptRoundTrip -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzPartitionInvariants -fuzztime 30s ./internal/partition/
	$(GO) test -run '^$$' -fuzz FuzzJournalRecover -fuzztime 30s ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzTrialFrameRoundTrip -fuzztime 30s ./internal/distrib/

# chaos-smoke is the crash-recovery gate CI runs (docs/RESILIENCE.md): a
# race-enabled torture campaign supervised under >= 10 SIGKILLs at seeded
# random points plus journal-tail corruption, restarted with -resume, must
# produce a report, log and corpus byte-identical to an uninterrupted run.
chaos-smoke:
	$(GO) build -race -o .chaos-smoke/torture ./cmd/torture
	$(GO) run ./cmd/chaos -dir .chaos-smoke/run -kills 10 -stalls 2 \
		-corrupt truncate-tail -corruptions 3 -ok-codes 0,1 \
		-min-delay 20ms -max-delay 120ms -crash-budget 8 -verify -- \
		.chaos-smoke/torture -trials 600 -seed 5 -protocols floodset,core \
		-corpus '{dir}/corpus' -shrink -shrink-runs 40 -determinism 7 \
		-workers 2 -journal '{dir}/campaign.wal' -resume

# distrib-smoke is the distributed-execution gate CI runs
# (docs/DISTRIBUTED.md): a race-enabled torture campaign dispatched to 3
# worker processes over TCP while cmd/chaos SIGKILLs workers mid-trial,
# SIGSTOPs one, and kills the coordinator itself — the resumed campaign
# must produce a report, log and corpus byte-identical to an
# uninterrupted single-process run. DISTRIB_SMOKE_DIR keeps the artifact
# dirs for upload on failure.
distrib-smoke:
	DISTRIB_SMOKE_DIR=$(CURDIR)/.distrib-smoke DISTRIB_SMOKE_RACE=1 \
		$(GO) test -race -count=1 -run TestDistribSoakTortureByteIdentical \
		./internal/distrib/ -v
