GO ?= go

.PHONY: check build vet lint test race bench results serve-check perfbench-check conformance fuzz-smoke

# check is the CI gate: compile everything, vet, run the module's own static
# analysis suite (cmd/ctcplint), then the full test suite under the race
# detector (the runner stress tests exercise it meaningfully). The
# conformance corpus runs inside `race` already (it is a normal test
# package); `conformance` exists as a focused re-run, and `fuzz-smoke` is
# deliberately NOT part of check — a timed fuzz run is too slow and too
# nondeterministic for the commit gate, so CI runs it as its own job.
check: build vet lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs ctcplint, the stdlib-only analyzer suite in internal/lint that
# enforces the simulator's determinism and hot-path invariants (map iteration
# order, //ctcp:hotpath allocations, wall clock/ambient randomness, float
# equality, Config.Validate coverage, unchecked artifact/response writes) and
# the service tier's concurrency invariants on a CFG/call-graph layer:
# lockheld (no blocking I/O while a mutex is held), lockorder (no
# lock-acquisition cycles module-wide), goroleak (every goroutine has a join
# signal). A suppression audit rides along: stale //ctcp:lint-ok and
# //ctcp:coldlock waivers fail the lint like real findings.
lint:
	$(GO) run ./cmd/ctcplint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# results regenerates results_full.txt, the checked-in full experiment sweep
# (every table, figure, ablation and sweep at a 200k-instruction budget). The
# simulator is deterministic, so on an unchanged tree every number must
# reproduce exactly (only the wall-clock "[... regenerated in ...]" lines
# vary); a numeric diff after a model change is the change's measured effect
# on the paper-style results and belongs in the same commit.
results:
	$(GO) run ./cmd/ctcpbench -insts 200000 > results_full.txt

# serve-check runs the ctcpd service suite under the race detector: the
# exactly-once dedup guarantee (asserted from the outside via /metrics),
# restart-reuse from the result store, journal restart-replay of queued and
# interrupted jobs, failed-fingerprint retry, tenant auth/quota/rate limits,
# fair-share dispatch, the progress event stream and its per-job routing,
# job retention, stale-fingerprint resimulation, backpressure, and the
# shutdown drain.
serve-check:
	$(GO) test -race -count=1 ./internal/serve/

# perfbench-check vets and tests the benchmark harness in perfbench/. It is a
# separate Go module (it replaces ctcp with this checkout), so the root
# `go test ./...` never compiles it; its tests drive the serve API in-process
# and check the ctcpd_runner_*/ctcpd_store_* /metrics names its service
# workload scrapes, so a change that would break the benchmark fails here.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# conformance runs the ISA conformance corpus under the race detector: every
# corpus program against its golden architectural result, emulator/pipeline
# retirement agreement under all strategies, opcode coverage, and the
# mutation-engine invariants. Golden updates: go test ./internal/conformance
# -run TestCorpusGolden -update (commit the numeric diff with its cause).
conformance:
	$(GO) test -race -count=1 ./internal/conformance/

# fuzz-smoke is the short differential-fuzz pass CI runs on every push: 30s
# of emulator-vs-timing-model cross-checking over mutated corpus programs,
# plus 10s of assembler roundtrip fuzzing. Divergence repros land in
# $$CTCP_REPRO_DIR (default: $$TMPDIR/ctcp-divergence) as replayable .s files.
fuzz-smoke:
	$(GO) test ./internal/conformance/ -run '^$$' -fuzz FuzzDifferential -fuzztime 30s
	$(GO) test ./internal/asm/ -run '^$$' -fuzz FuzzAssembleRoundtrip -fuzztime 10s

# bench runs the cycle-model microbenchmarks, then regenerates
# BENCH_pipeline.json (current throughput next to the frozen pre-optimization
# baseline) via the programmatic harness in internal/bench. Set BENCH_LABEL
# to also record the measurement in the file's history array:
#   make bench BENCH_LABEL=soa-inflight-store
BENCH_LABEL ?=
bench:
	$(GO) test ./internal/pipeline -run='^$$' -bench=. -benchmem -benchtime=1s
	$(GO) run ./cmd/ctcpbench -microbench -bench-out BENCH_pipeline.json $(if $(BENCH_LABEL),-bench-label $(BENCH_LABEL))
