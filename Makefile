GO ?= go
# Benchmark knobs: BENCHTIME per testing -benchtime (1x = one iteration,
# CI smoke; 5x or 2s for real measurements), BENCHOUT the report path
# (empty = BENCH_<date>.json in the working directory).
BENCHTIME ?= 1x
BENCHOUT ?=

.PHONY: build test race lint fsm fsm-check explore verify bench bench-go bench-compare serve load fuzz-wire

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# All seven linting layers: go vet, then speccatlint's six Go layers —
# the design-rule analyzers, the fsmcheck protocol extraction, the
# durcheck durability-ordering analysis, the portcheck
# runtime-boundary/state-confinement analysis, the commcheck commutativity
# lock-mode analysis and the lockcheck 2PL/lock-order analysis, all run by
# default over one shared fact base of the whole module — the spec linter
# over the thesis corpus and the commutativity spec, and the
# generated-FSM-docs staleness gate. speccatlint -only <layer> reruns any
# single layer in isolation.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/speccatlint ./...
	$(GO) run ./cmd/speccatlint internal/core/speclang/testdata/thesis/*.sw internal/locking/comm.sw
	$(GO) run ./cmd/speccatlint -only fsm -fsm-check docs/fsm ./internal/...

# Regenerate docs/fsm from the //fsm:* annotations in the sources. The
# output is deterministic; commit it, and CI fails when it drifts.
fsm:
	$(GO) run ./cmd/speccatlint -only fsm -fsm docs/fsm ./internal/...

# Fail (without writing) when docs/fsm is stale relative to the sources.
fsm-check:
	$(GO) run ./cmd/speccatlint -only fsm -fsm-check docs/fsm ./internal/...

# Deterministic fault-exploration smoke suite: the explorer must rediscover
# the naive-3PC atomicity violation and 2PC blocking end to end, full 3PC
# must run clean, and the checked-in shrunk counterexamples must replay
# byte-for-byte. Budget counts simulated runs, not wall time.
explore:
	$(GO) run ./cmd/tpcexplore -protocol 3pc-naive -seeds 40 -budget 400 -expect atomicity
	$(GO) run ./cmd/tpcexplore -protocol 2pc -seeds 40 -budget 400 -expect progress
	$(GO) run ./cmd/tpcexplore -protocol 3pc -seeds 80 -budget 400 -expect none
	$(GO) run ./cmd/tpcexplore -replay internal/explore/testdata/naive3pc_atomicity.json
	$(GO) run ./cmd/tpcexplore -replay internal/explore/testdata/2pc_blocking.json

# The full tier-1 gate: everything CI runs.
verify: build lint test race explore

# Benchmark regression harness: runs the E0..E10 + E14 suite via
# cmd/specbench and writes the machine-readable BENCH_<date>.json report
# (schema: internal/benchsuite.Report). bench-go runs the same bodies
# through `go test -bench` for interactive use.
bench:
	$(GO) run ./cmd/specbench -benchtime $(BENCHTIME) -out "$(BENCHOUT)"

bench-go:
	$(GO) test -bench . -benchtime $(BENCHTIME) -run ^$$ ./...

# Regression gate: rerun the suite and fail on any benchmark (or E14
# proof-pipeline arm) slower than the checked-in BASELINE report by more
# than TOLERANCE. The default 20% is meant for quiet machines and
# time-based BENCHTIMEs (100ms gives microbenchmarks thousands of
# iterations); CI calls this with a much looser tolerance as a
# gross-regression smoke gate, since shared runners jitter the
# single-iteration heavyweight arms by 1.5x or more.
BASELINE ?= BENCH_2026-08-09.json
TOLERANCE ?= 0.20
# The compare run writes its own report (never the default BENCH_<date>
# name, which could clobber a same-day baseline).
COMPAREOUT ?= BENCH_compare.json
bench-compare:
	$(GO) run ./cmd/specbench -benchtime $(BENCHTIME) -out "$(COMPAREOUT)" -compare "$(BASELINE)" -tolerance $(TOLERANCE)

# Serving-path knobs for the convenience targets below. A real deployment
# runs one `make serve NODE=n` per machine with the same CLUSTER map;
# node 1 is the coordinator.
NODE ?= 1
CLUSTER ?= 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103,4=127.0.0.1:7104
CLIENT ?= 127.0.0.1:720$(NODE)
DATA ?=
LOADADDR ?= 127.0.0.1:7201
TXNS ?= 500

# Run one cluster node (tpc/txn/kvstore over real TCP). Example 4-node
# local cluster: `make serve NODE=1 &`, ... `make serve NODE=4 &`.
serve:
	$(GO) run ./cmd/tpcserve -node $(NODE) -cluster "$(CLUSTER)" -client $(CLIENT) $(if $(DATA),-data $(DATA))

# Drive the load generator at a running cluster's coordinator.
load:
	$(GO) run ./cmd/tpcload -addr $(LOADADDR) -txns $(TXNS)

# Wire-layer fuzzers with a bounded budget (CI serve-smoke runs this; the
# checked-in seed corpus under internal/rt/tcp/testdata/fuzz replays on
# every plain `go test`).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/rt/tcp
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/rt/tcp
