# Developer entry points. `make check` is the gate every change must
# pass; CI (.github/workflows/ci.yml) runs the same target.

GO ?= go

# staticcheck is pinned so a new upstream release cannot break CI
# mid-flight; bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check build vet lint cuckoovet test race perfbench-test bench-ab bench bench-smoke bench-txn bench-hotalloc bench-grow bench-replica fuzz chaos loadgen-smoke metrics-smoke

check: build vet lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = the repo's own invariant checker (always; it builds offline from
# this module with no dependencies) + staticcheck when present (CI installs
# the pinned version; locally it is optional so the gate never requires
# network access).
lint: cuckoovet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# cuckoovet machine-checks the paper's concurrency invariants (§4.2 atomic
# discipline, §4.4 lock ordering, Eq. 1 snapshot/validate, §5 transaction
# purity, P1 cache-line padding) plus the interprocedural hot-path proofs
# (allocation freedom, no blocking in lock-free regions). See
# docs/ANALYSIS.md. -timing prints per-analyzer wall time to stderr so a
# slow analyzer is visible before it eats the CI budget (the CI job caps
# the whole static-analysis step at 5 minutes).
cuckoovet:
	$(GO) run ./cmd/cuckoovet -timing ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repo benchmark (perfbench/, BENCHMARK.json) is its own module, so
# the root `go test ./...` never builds it; this vets and tests it against
# the working tree, which catches a server API change that would break it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A/B of the repo benchmark: this working tree against BASE, PAIRS
# alternating pairs of WORKLOAD through each tree's own perfbench/run.py
# (scripts/bench_ab.py). Prints each side's median and quartiles per gated
# metric with the pair-win count and writes results/AB_$(WORKLOAD).json.
BASE ?= HEAD
WORKLOAD ?= wire-zipf-pipelined
PAIRS ?= 10
bench-ab:
	python3 scripts/bench_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

# Deterministic chaos suite (docs/ROBUSTNESS.md): fault-injected workloads,
# fault-tolerant clients, drain/restore — always under -race and -count=1
# (no cache) with verbose fault accounting for reproduction. A dedicated CI
# job runs this so the tier-1 test job stays fast.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestPoolBreaker|TestDrainSaves' \
	    ./server/ ./client/ ./internal/faultinject/

# The figure harness at CI scale, with a JSON trajectory artifact.
bench:
	$(GO) run ./cmd/cuckoobench -exp all -scale small -json BENCH_small.json

# Quick perf-trajectory point: the full figure set at small scale, written
# where the committed baseline lives (results/BENCH_core.json is the seed;
# CI uploads each run's file as an artifact for diffing).
bench-smoke:
	$(GO) run ./cmd/cuckoobench -exp all -scale small -out results/BENCH_ci.json

# The cuckootxn acceptance benchmark (docs/TRANSACTIONS.md): split-counter
# INCR vs naive locked INCR under zipf s=1.2 skew, median of 3 runs. The
# committed baseline lives at results/BENCH_txn.json; this regenerates it
# in place so a perf regression shows up as a diff.
bench-txn:
	$(GO) run ./cmd/cuckoobench -exp txnzipf -scale small -repeat 3 -out results/BENCH_txn.json

# The hot-path allocation benchmark (docs/ANALYSIS.md): allocs/op through
# the public Cache API for byte-key GET (must be 0, hit and miss) vs the
# legacy per-op string conversion (~1). The committed baseline lives at
# results/BENCH_hotalloc.json; this regenerates it in place so an
# allocation creeping onto the hot path shows up as a diff.
bench-hotalloc:
	$(GO) run ./cmd/cuckoobench -exp hotalloc -scale small -repeat 3 -out results/BENCH_hotalloc.json

# The cuckoorepl acceptance benchmark (docs/REPLICATION.md): hot-set read
# scale-out across both candidate nodes (peak-capacity factor must be
# >= 2x single-home) and the miss-lease herd collapse (1 backend fill vs
# one per client). The committed baseline lives at
# results/BENCH_replica.json; this regenerates it in place.
bench-replica:
	$(GO) run ./cmd/cuckoobench -exp replread -scale small -repeat 3 -out results/BENCH_replica.json

# The incremental-resize acceptance benchmark (docs/ROBUSTNESS.md): max
# single-op insert latency across six table doublings, stop-the-world
# rebuild vs incremental migration, median of 3 runs. The committed
# baseline lives at results/BENCH_grow.json; this regenerates it in place
# so a regression (e.g. a grow pause creeping back) shows up as a diff.
bench-grow:
	$(GO) run ./cmd/cuckoobench -exp growpause -scale small -repeat 3 -out results/BENCH_grow.json

# Native Go fuzzing of the server text-protocol codec. The corpus seeds
# live in the test; 30s is the CI budget — run longer locally with
# FUZZTIME=10m.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseCommand -fuzztime $(FUZZTIME) ./server/

# End-to-end smoke of the cache daemon: serve, load-generate, drain.
# The binary is run directly (not via `go run`, which does not forward a
# kill-sent SIGINT to its child, so the drain would never trigger).
loadgen-smoke:
	$(GO) build -o ./cuckood.smoke ./cmd/cuckood
	./cuckood.smoke -listen 127.0.0.1:11377 & \
	CUCKOOD_PID=$$!; \
	sleep 1; \
	./cuckood.smoke -loadgen -addr 127.0.0.1:11377 \
	    -conns 4 -ops 20000 -batch 16 -dist zipf; \
	STATUS=$$?; \
	kill -INT $$CUCKOOD_PID; wait $$CUCKOOD_PID || STATUS=$$?; \
	rm -f ./cuckood.smoke; \
	exit $$STATUS

# End-to-end smoke of the admin endpoint: serve with -admin, drive a tiny
# traced zipf load, then scrape /metrics and assert the key series —
# including the cuckootrace stage/hot-key ones — are present, and that
# /debug/flight dumps records. -slow-op is 1ms, not 1ns: slow ops are
# never sampled away, so a 1ns threshold would log all 5000 requests.
metrics-smoke:
	$(GO) build -o ./cuckood.smoke ./cmd/cuckood
	./cuckood.smoke -listen 127.0.0.1:11378 -admin 127.0.0.1:11379 -slow-op 1ms & \
	CUCKOOD_PID=$$!; \
	sleep 1; \
	./cuckood.smoke -loadgen -addr 127.0.0.1:11378 -conns 2 -ops 5000 -batch 16 -dist zipf -trace; \
	STATUS=$$?; \
	if [ $$STATUS -eq 0 ]; then \
		SCRAPE=$$(curl -fsS http://127.0.0.1:11379/metrics) || STATUS=$$?; \
		for series in cuckoo_table_path_length_bucket \
		              cuckoo_table_path_restarts_total \
		              cuckoo_lock_contended_total \
		              cuckoo_htm_aborts_total \
		              cuckood_hits_total \
		              cuckood_misses_total \
		              cuckood_evictions_total \
		              cuckood_slow_requests_total \
		              cuckood_request_duration_seconds_bucket \
		              cuckood_stage_seconds_bucket \
		              cuckood_hot_key_count; do \
			echo "$$SCRAPE" | grep -q "$$series" || { echo "MISSING $$series"; STATUS=1; }; \
		done; \
		curl -fsS http://127.0.0.1:11379/debug/vars >/dev/null || STATUS=1; \
		curl -fsS http://127.0.0.1:11379/debug/pprof/ >/dev/null || STATUS=1; \
		FLIGHT=$$(curl -fsS http://127.0.0.1:11379/debug/flight) || STATUS=$$?; \
		echo "$$FLIGHT" | grep -q "verb=" || { echo "EMPTY /debug/flight"; STATUS=1; }; \
		echo "$$FLIGHT" | grep -q "trace=" || { echo "NO trace= in /debug/flight"; STATUS=1; }; \
	fi; \
	kill -INT $$CUCKOOD_PID; wait $$CUCKOOD_PID || STATUS=$$?; \
	rm -f ./cuckood.smoke; \
	[ $$STATUS -eq 0 ] && echo "metrics-smoke OK"; \
	exit $$STATUS
