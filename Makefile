# Development targets for the LFSC reproduction. Everything uses only the
# Go toolchain — no external dependencies.

GO ?= go

# Packages that carry the concurrency contract (bit-identical results
# under parallel.ForDynamic, the fan-out of sim.RunAll and
# sim.RunReplicas, whose runs each generate their own workload) and
# therefore must stay clean under the race detector, including the
# concurrent RunAll tests in internal/sim. internal/obs is
# included because its probe/registry/ring types are shared across
# RunAll goroutines, and internal/metrics because RunAll aggregates its
# Series concurrently. internal/serve is the serving daemon: HTTP
# handlers run the slot machine, every shard's legs included, on their
# own goroutines under one mutex, beside the slot clock, the report-wait
# timer's callback, the status and metrics readers and the shedding
# gates, so it is concurrent by construction.
RACE_PKGS = ./internal/core ./internal/parallel ./internal/assign ./internal/sim ./internal/trace ./internal/obs ./internal/metrics ./internal/serve

.PHONY: all build vet deps-check test test-race bench-short bench json results-check bench-serve bench-serve-shards bench-diff fuzz-short serve-smoke serve-smoke-shards client-smoke obs-smoke scenario-smoke examples-smoke perfbench-test perfbench-smoke ci clean

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every internal/ package must be linked into a program: the root package,
# a cmd/ binary or an example. A package that only tests import is code no
# user runs; this names each such package and fails. (Make's /bin/sh has no
# process substitution, so the linked set is passed to grep as a pattern
# list.)
deps-check:
	@linked=$$($(GO) list -deps . ./cmd/... ./examples/...) && \
	pkgs=$$($(GO) list ./internal/...) || exit 1; \
	unlinked=$$(printf '%s\n' "$$pkgs" | grep -vxF -e "$$linked"); \
	if [ -n "$$unlinked" ]; then \
		echo "deps-check: no program links these packages:"; \
		printf '  %s\n' $$unlinked; exit 1; \
	fi; \
	echo "deps-check: every internal/ package is linked into a program"

test:
	$(GO) test ./...

test-race:
	$(GO) test -race $(RACE_PKGS)

# Quick perf snapshot of the hot path: the allocation-free micro kernels
# (Decide on a fresh learner and, as BenchmarkDecideLearned, on one warmed
# through 3,000 realistic slots; Update; Greedy; DepRound on uniform and
# skewed marginals; hypercube indexing), the workload
# substrate every slot pays for (one paper-scale slot generated through
# the pooled NextInto, one environment outcome draw, and one slot's tasks
# indexed through IndexTask), the serving wire codec (encode and decode
# of a paper-scale /v1/step body, JSON and binary frame — the source of
# DESIGN.md §10's decode figures) and the client round trip (one lockstep
# /v1/step over loopback against an in-process daemon, 4-SCN and paper
# shape), the shard plane's figure (one paper-scale lockstep slot through
# Engine.StepInto at Shards 1, 2 and 4, reporting cpu-ns/op from
# getrusage beside ns/op; 0 allocs/op at every count), one checkpoint commit of a warmed paper-shape learner at
# Shards 1 and 2 (it reports fsyncs/op, 2 at any shard count), plus the
# scenario timeline build (scenarios/churn.scn over the paper topology
# at T=10⁴, what a -scenario daemon pays at boot, and the same config
# with its SCN sets scaled tenfold at 300 SCNs × T=4×10⁴). All
# benchmarks report allocs/op; the steady-state kernels and the substrate
# must show 0.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkDecide|BenchmarkUpdate' -benchtime 10x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkGreedyAssign|BenchmarkDepRound' -benchtime 100x ./internal/assign
	$(GO) test -run '^$$' -bench 'BenchmarkHypercubeIndex|BenchmarkIndexTask' -benchtime 100x ./internal/hypercube
	$(GO) test -run '^$$' -bench 'BenchmarkSyntheticNext' -benchtime 100x ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkDraw$$' -benchtime 100000x ./internal/env
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec' -benchtime 10x ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkClientStep' -benchtime 500x ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkShardedStep' -benchtime 500x ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpointCommit' -benchtime 100x ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkBuild$$' -benchtime 10x ./internal/scenario

# Full benchmark suite (figure-level harness included; slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Regenerate the perf-trajectory artifact at the paper horizon: the
# kernel's ns/slot (the Decide and Observe probe phases of the fastest of
# five live LFSC runs), allocs/slot and the LFSC/Oracle ratio. The serve
# keys already in the file are kept.
json:
	$(GO) run ./cmd/lfscbench -benchjson BENCH_core.json

# Regenerate all 14 results/ CSVs (every experiment at the paper's
# horizon, seed 42) into a temporary directory and compare each byte for
# byte with the committed file. It takes about 5 minutes on 2 vCPUs, so it
# stays out of `make ci`; a change to behaviour or to the hot path runs it
# and reports the outcome. The tier-1 counterpart is
# internal/experiments' TestSeriesDigestGoldens (T=600, bit-exact).
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/lfscbench -exp all -T 10000 -seed 42 -outdir "$$tmp" && \
	n=0 && for f in results/*.csv; do \
		cmp "$$f" "$$tmp/$$(basename "$$f")" || exit 1; n=$$((n+1)); \
	done && \
	if [ "$$(ls "$$tmp"/*.csv | wc -l)" -ne "$$n" ]; then \
		echo "results-check: lfscbench wrote $$(ls "$$tmp"/*.csv | wc -l) CSVs, results/ has $$n"; exit 1; \
	fi && \
	echo "results-check: all $$n results/ CSVs byte-identical"

# Measure the serving data plane and merge its figures into the same
# artifact: serve_ns_per_slot (in-process batched /v1/step lockstep,
# generation pre-materialized so the clock sees only the serving path),
# serve_allocs_per_slot / serve_allocs_per_req (0 in steady state),
# serve_ns_per_slot_probe (the shipped lfscd default — slot-phase probe
# on, everything else off), serve_ns_per_slot_obs (the full
# observability stack; benchdiff pins it at ≤5% over the probe
# baseline), and serve_http_rps (real loopback HTTP round trips).
bench-serve:
	$(GO) run ./cmd/lfscbench -benchserve BENCH_core.json

# Short-mode shard-curve smoke: run Shards=1/2/4 end-to-end (staged
# ingest, the shards' legs one after another and the merge, the slot
# close, real loopback HTTP) on a few hundred slots and print the rps
# triple. The result goes to a private scratch directory, removed
# afterwards, not the committed artifact — the point in CI is that the
# sharded serving plane boots and serves at every count on every push,
# with no count far below Shards=1; the gated numbers come from the full
# `make bench-diff` run.
bench-serve-shards:
	@tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/lfsc-shards.XXXXXX") && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/lfscbench -benchshards "$$tmp/BENCH_shards.json" -serve-http-slots 300

# Measure the working tree against the committed perf artifact: runs the
# paper-horizon benchmark AND the serve-layer harness into a scratch file
# (in a private directory, removed afterwards) and diffs it against
# BENCH_core.json. Fails (exit 1) on a >25%
# timing/allocation regression (core or serve), a serve-throughput drop
# below 75% (serve_http_rps and serve_shard_rps_1 alike), a non-monotone
# shard curve where the machine has the cores, a dropped serve key, or
# ANY reward-ratio drift — the simulation is deterministic, so a ratio
# change means the computation itself changed.
bench-diff:
	@tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/lfsc-diff.XXXXXX") && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/lfscbench -benchjson "$$tmp/BENCH_head.json" && \
	$(GO) run ./cmd/lfscbench -benchserve "$$tmp/BENCH_head.json" && \
	$(GO) run ./cmd/benchdiff BENCH_core.json "$$tmp/BENCH_head.json"

# Short fuzz passes over the decoders that parse untrusted bytes (the
# checkpoint loader, the JSON and binary-frame wire request decoders, the
# scenario config parser) and over the serving slot machine, driven
# through fuzzed event sequences of 2-3 lockstep clients with invalid
# reports among them (FuzzSlotWalk). Go allows one fuzz target per
# invocation (hence the anchored patterns: FuzzWireDecode is a prefix of
# FuzzWireDecodeBinary), so each gets its own run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecodeBinary$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSlotWalk$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime 5s ./internal/scenario

# The serving-layer smoke: boot lfscd on an ephemeral port, drive 200
# slots of a shared trace over real HTTP with periodic checkpointing,
# kill the daemon hard mid-run, resume a fresh one from the checkpoint,
# and verify the resumed run's cumulative reward is bit-identical to an
# uninterrupted run (plus the graceful-stop variant); then drive 2 and
# 4 clients on disjoint SCN sets through submit + report, and 2, 4 and
# 30 (one per SCN of a 30-SCN scenario) through lockstep steps that
# carry their reports, with no late slot, late report or shed request
# allowed — all under the race detector.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke$$|TestRestoreAfterGracefulStopResumesExactly|TestMultiClientSubmitReport|TestMultiClientStep' ./internal/serve

# The sharded variant: the same 200-slot kill-and-resume at Shards=4
# (one checkpoint file, two empty shards at this scale), the
# Shards=1/2/4-vs-offline three-way identity, the resharding matrix
# (checkpoints from 1, 2 and 4 shards, each byte-identical to the
# committed single file, plus that file, each restored at 1, 2 and 4
# shards), refused restores (a manifest, a header slot that disagrees
# with the learner's, a corrupt row) that must leave the engine
# untouched, an error and a crash injected at every file operation of a
# commit at Shards 1, 2 and 4, fresh and after a restore (each restored
# bit-identically), and the failure counters — all under the race
# detector, beside the status and metrics readers of the shards' timings.
serve-smoke-shards:
	$(GO) test -race -count=1 -run 'TestServeSmokeShards|TestShardedLockstepThreeWayIdentity|TestCheckpointReshardMatrix|TestFailedRestoreLeavesEngineUntouched|TestCheckpointCommitFaults|TestCheckpointFailuresCounted' ./internal/serve

# The client's connection lifecycle: a pooled connection the daemon
# closed while idle is redialed once (replay bit-identical), a reply cut
# after its status line is never resent, Connection: close is honoured,
# a stopped daemon gives an error and not a hang (hence the -timeout),
# reply bodies are bounded, and many goroutines share one Client with
# each request on its own connection — under the race detector, ten
# times over.
client-smoke:
	$(GO) test -race -count=10 -timeout 5m -run '^TestClient' ./internal/serve

# The observability smoke: boot a fully instrumented Shards=4 daemon,
# serve real traffic, scrape /metrics twice with traffic in between
# (validating the exposition with the in-test Prometheus text parser and
# diffing the monotone counters), exercise /lfsc/slots and the extended
# /lfsc/status, and hammer every scrape surface concurrently with live
# serving — all under the race detector, plus the instrumented
# bit-identity and 0 allocs/request pins.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmokeScrape|TestSlotsEndpointAndStatus|TestConcurrentScrapeUnderLoad|TestObsInstrumentedThreeWayIdentity|TestServeWireZeroAllocObs' ./internal/serve

# The scenario smoke: churn a timeline through the serving daemon —
# kill-and-resume mid-churn with the checkpoint's scenario digest
# round-tripped (a restore under a missing or different scenario is
# refused), the resumed run bit-identical to an uninterrupted one, and
# the client==daemon==offline-sim three-way identity under the same
# timeline at Shards=1 and 4 — under the race detector.
scenario-smoke:
	$(GO) test -race -count=1 -run 'TestScenarioServeSmokeResume|TestScenarioLockstepThreeWayIdentity|TestScenarioObservability' ./internal/serve

# Build and run every examples/ program with its default arguments; any
# non-zero exit fails the target, and so does a file an example leaves in
# its TMPDIR (a fresh, empty directory removed afterwards). internal/queueing
# is reachable only from examples/latency, so this is the one gate that
# runs it; that example also exits non-zero when its own verdict fails
# (10% or more of the tasks over one slot). Each example takes a few
# seconds at most.
examples-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for d in examples/*/; do \
		TMPDIR="$$tmp" $(GO) run "./$$d" >/dev/null || { echo "examples-smoke: $$d failed"; exit 1; }; \
		left=$$(ls -A "$$tmp"); \
		if [ -n "$$left" ]; then echo "examples-smoke: $$d left in TMPDIR:" $$left; exit 1; fi; \
		echo "examples-smoke: $$d ok"; \
	done

# perfbench/ (the BENCHMARK.json runner) is a nested Go module, so the
# root `go test ./...` never reaches its package tests; vet and test it
# from inside the module.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# One-second runs of every BENCHMARK.json workload: the paper-scale slot
# stream (Sec. 5 topology, ~2000 tasks per /v1/step) served by a real
# lfscd over loopback HTTP, the 4-SCN serving shape, offline sim.Run, and
# churn at 2 shards with checkpoints. The timings are throwaway; the
# point is perfbench's per-run gate, which exits non-zero unless client,
# daemon and an offline sim.Run agree bit for bit.
perfbench-smoke:
	bash perfbench/run.sh --workload all --seconds 1 --trace 0

# Everything a commit must pass, in the order a CI runner would execute:
# static checks (vet, and deps-check: every internal/ package is linked
# into a program), the full test suite, the race-detector suite over the
# concurrency-contract packages, the serving-layer kill-and-resume
# smokes (unsharded and Shards=4), the client connection-lifecycle
# smoke, the observability scrape smoke, the scenario churn smoke, the
# quick perf kernels (which also assert 0 allocs/op on the steady-state
# paths), the short-mode shard curve, a short fuzz pass over the
# untrusted-input decoders and the slot machine, every examples/ program, the perfbench
# module's own vet and tests, and a paper-scale served slot stream
# through perfbench's client == daemon == offline gate.
ci: vet deps-check test test-race serve-smoke serve-smoke-shards client-smoke obs-smoke scenario-smoke bench-short bench-serve-shards fuzz-short examples-smoke perfbench-test perfbench-smoke

clean:
	$(GO) clean ./...
