# Development targets for the LFSC reproduction. Everything uses only the
# Go toolchain — no external dependencies.

GO ?= go

# Packages that carry the concurrency contract (bit-identical results
# under parallel.For and under concurrent shared-trace replay) and
# therefore must stay clean under the race detector, including the
# Workers=1 vs Workers=N determinism test and the RunAll replay test in
# internal/sim. internal/obs is included because its probe/registry/ring
# types are shared across RunAll goroutines, and internal/metrics because
# RunAll aggregates its Series concurrently. internal/serve is the
# serving daemon: HTTP handlers, the batcher goroutine, and shedding
# gates are all concurrent by construction.
RACE_PKGS = ./internal/core ./internal/parallel ./internal/assign ./internal/sim ./internal/trace ./internal/obs ./internal/metrics ./internal/serve

.PHONY: all build vet test test-race bench-short bench-short-parallel bench json bench-serve bench-serve-shards bench-diff fuzz-short serve-smoke serve-smoke-shards client-smoke obs-smoke scenario-smoke perfbench-test perfbench-smoke ci clean

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race $(RACE_PKGS)

# Quick perf snapshot of the hot path: the allocation-free micro kernels
# (Decide/Update/Greedy/DepRound/hypercube indexing), the workload
# substrate every slot pays for (one paper-scale slot generated through
# the pooled NextInto, one environment outcome draw, and one slot's tasks
# indexed through IndexTask), the serving wire codec (encode and decode
# of a paper-scale /v1/step body, JSON and binary frame — the source of
# DESIGN.md §10's decode figures) and the client round trip (one lockstep
# /v1/step over loopback against an in-process daemon, 4-SCN and paper
# shape). All benchmarks report allocs/op; the steady-state kernels and
# the substrate must show 0.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkDecide|BenchmarkUpdate' -benchtime 10x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkGreedyAssign|BenchmarkDepRound' -benchtime 100x ./internal/assign
	$(GO) test -run '^$$' -bench 'BenchmarkHypercubeIndex|BenchmarkIndexTask' -benchtime 100x ./internal/hypercube
	$(GO) test -run '^$$' -bench 'BenchmarkSyntheticNext' -benchtime 100x ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkDraw$$' -benchtime 100000x ./internal/env
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec' -benchtime 10x ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkClientStep' -benchtime 500x ./internal/serve

# The same kernels at Workers=NumCPU, under the race detector: the
# parallel per-SCN Decide/Observe fan-out must stay race-clean on every
# push, and its allocation budget is pinned separately by
# TestDecideObserveParallelAllocBounded (fan-out scaffolding only — the
# per-SCN arenas never allocate in steady state at any worker count).
bench-short-parallel:
	$(GO) test -race -run '^$$' -bench 'BenchmarkDecideParallel|BenchmarkUpdateParallel' -benchtime 10x ./internal/core

# Full benchmark suite (figure-level harness included; slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Regenerate the perf-trajectory artifact (ns/slot, allocs/slot,
# LFSC/Oracle ratio at the paper horizon).
json:
	$(GO) run ./cmd/lfscbench -benchjson BENCH_core.json

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

# Short-mode shard-scaling smoke: run the Shards=1/2/4 curve end-to-end
# (staged ingest, per-shard legs and merge, pipelined close, real
# loopback HTTP) on a few hundred slots and print the rps triple. The
# result goes to a scratch file, not the committed artifact — the point
# in CI is that the sharded serving plane boots, serves, and scales
# sanely on every push; the gated numbers come from the full `make
# bench-diff` run.
bench-serve-shards:
	rm -f /tmp/BENCH_shards.json
	$(GO) run ./cmd/lfscbench -benchshards /tmp/BENCH_shards.json -serve-http-slots 300

# Measure the working tree against the committed perf artifact: runs the
# paper-horizon benchmark AND the serve-layer harness into a scratch file
# and diffs it against BENCH_core.json. Fails (exit 1) on a >25%
# timing/allocation regression (core or serve), a serve-throughput drop
# below 75% (serve_http_rps and serve_shard_rps_1 alike), a non-monotone
# shard curve where the machine has the cores, a dropped serve key, or
# ANY reward-ratio drift — the simulation is deterministic, so a ratio
# change means the computation itself changed.
bench-diff:
	rm -f /tmp/BENCH_head.json
	$(GO) run ./cmd/lfscbench -benchjson /tmp/BENCH_head.json
	$(GO) run ./cmd/lfscbench -benchserve /tmp/BENCH_head.json
	$(GO) run ./cmd/benchdiff BENCH_core.json /tmp/BENCH_head.json

# Short fuzz passes over the decoders that parse untrusted bytes: the
# checkpoint loader, the JSON and binary-frame wire request decoders, and
# the scenario config parser. Go allows one fuzz target per invocation
# (hence the anchored patterns: FuzzWireDecode is a prefix of
# FuzzWireDecodeBinary), so each gets its own run.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecodeBinary$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime 5s ./internal/scenario

# The serving-layer smoke: boot lfscd on an ephemeral port, drive 200
# slots of a shared trace over real HTTP with periodic checkpointing,
# kill the daemon hard mid-run, resume a fresh one from the checkpoint,
# and verify the resumed run's cumulative reward is bit-identical to an
# uninterrupted run (plus the graceful-stop variant), under the race
# detector.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke$$|TestRestoreAfterGracefulStopResumesExactly' ./internal/serve

# The sharded variant: the same 200-slot kill-and-resume at Shards=4
# (per-shard checkpoint files + manifest, two empty shards at this
# scale), the Shards=1/2/4-vs-offline three-way identity, the resharding
# matrix (checkpoints from 1, 2 and 4 shards and a legacy single file,
# each restored at 1, 2 and 4 shards), a refused restore that must leave
# the engine untouched, and the cleanup of a superseded generation
# written at another shard count — all under the race detector (the
# shard fan-out runs Decide/Observe on parallel goroutines).
serve-smoke-shards:
	$(GO) test -race -count=1 -run 'TestServeSmokeShards|TestShardedLockstepThreeWayIdentity|TestCheckpointReshardMatrix|TestFailedRestoreLeavesEngineUntouched|TestReshardRestoreCleansSupersededGeneration' ./internal/serve

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
# static checks, the full test suite, the race-detector suite over the
# concurrency-contract packages, the serving-layer kill-and-resume
# smokes (unsharded and Shards=4), the client connection-lifecycle
# smoke, the observability scrape smoke, the scenario churn smoke, the
# quick perf kernels (which also assert 0 allocs/op on the steady-state
# paths) at Workers=1 and again at Workers=NumCPU under the race
# detector, the short-mode shard-scaling curve, a short fuzz pass over
# the untrusted-input decoders, the perfbench module's own vet and
# tests, and a paper-scale served slot stream through perfbench's
# client == daemon == offline gate.
ci: vet test test-race serve-smoke serve-smoke-shards client-smoke obs-smoke scenario-smoke bench-short bench-short-parallel bench-serve-shards fuzz-short perfbench-test perfbench-smoke

clean:
	$(GO) clean ./...
