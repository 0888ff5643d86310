# CI and humans invoke the same targets. The ci.yml workflow runs
# parallel jobs — lint (`make fmt vet staticcheck`), test (`make build
# race fuzz-smoke benchmark-check examples cover`), chaos (`make
# chaos`), serve (`make serve-smoke`, the Docker compose cluster), and
# bench (`make bench-smoke`) — and the nightly workflow adds `make
# bench` and `make bench-city` (the N=100000 churn harness) gated against
# the committed BENCH_city.json baseline. End-to-end performance is the
# benchmark/ module's business (`bash benchmark/run.sh`, checked by `make
# benchmark-check`). `make loc` prints the size figure CHANGES.md entries
# quote: non-test Go lines outside benchmark/, per package directory,
# total last.

GO ?= go

.PHONY: all build test race fuzz-smoke benchmark-check examples bench bench-smoke bench-city cover loc fmt vet staticcheck chaos chaos-soak serve-smoke clean

all: fmt vet staticcheck build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The cluster suite includes deliberate fault-injection sleeps and the
# race detector runs 3-4x slower on small runners, so give the suite
# explicit headroom over go test's default 10m per-package timeout.
race:
	$(GO) test -race -timeout 20m ./...

# Plain `go test` only replays a fuzz target's seed corpus. This gives
# every target in the tree (found by name, so a new one is picked up) a
# few seconds of real fuzzing; a crasher lands in the package's
# testdata/fuzz/ and fails the run.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; grep -rlE '^func Fuzz' --include='*_test.go' internal | sort | while read -r f; do \
		for name in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' "$$f"); do \
			echo "== $$name ($$(dirname "$$f"))"; \
			$(GO) test -run='^$$' -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) "./$$(dirname "$$f")"; \
		done; \
	done

# benchmark/ is a Go module of its own (it reaches repro/internal/...
# through a replace directive), so `./...` at the root neither compiles
# nor runs it: vet it and run its smoke test (< 10 s) against this tree.
# The root package's TestBenchmarkModule does the same inside `go test`.
benchmark-check:
	GOWORK=off $(GO) vet -C benchmark ./...
	GOWORK=off $(GO) test -C benchmark ./...

# Every program under examples/ is built and run to completion: a
# non-zero exit, or a run longer than two minutes, fails the target.
# The binaries go to a temporary directory that is removed afterwards.
examples:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for d in examples/*/; do \
		name=$$(basename "$$d"); echo "== $$name"; \
		$(GO) build -o "$$bin/$$name" "./$$d"; \
		timeout 120s "$$bin/$$name"; \
	done

# Full go test -bench run (minutes on a laptop).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One-iteration smoke: every benchmark compiles and executes — the
# per-layer ones among them (BenchmarkSweepBounds, BenchmarkSweepSurvivors,
# BenchmarkSweepFiltered, BenchmarkMinCrispDist in internal/prune,
# BenchmarkColdBuild in internal/engine (one memo-miss UQ31 Do at
# N = 3 000, on one worker and on two),
# BenchmarkApplyUpdatesTagged and BenchmarkBuildIndex in internal/mod,
# BenchmarkKNN/bulk, BenchmarkKNN/chained (KNN on a tree chained through
# Inserted) and BenchmarkInsertedBatch in internal/sindex,
# BenchmarkShardFrameEncode/Decode and BenchmarkAppliedReplyDecode (a
# shard's reply to a 240-update batch, fast path vs encoding/json) in
# internal/modserver, BenchmarkIngestBodyDecode (the same batch as a
# POST /v1/ingest body) in internal/gateway,
# BenchmarkRefineUnion in internal/engine (the router's central refine
# of a gathered union), BenchmarkHubIngestStanding in
# internal/continuous, BenchmarkProcessorVariants and
# BenchmarkBelowIntervals in internal/queries, BenchmarkTreeConstruction
# in internal/core — the reference tree construction beside the one on
# the processor, ~10 s at N = 20 000; EXPERIMENTS.md has their rows).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# City-scale churn harness (nightly CI): Poisson arrivals of updates,
# queries, and subscribe/unsubscribe churn with TTL-style retirement at
# N=100000 over the single hub and a 4-shard router, emitted as
# BENCH_city.json. Fails unless every spot check is byte-identical to a
# fresh snapshot re-query. CITY_BASELINE (the committed BENCH_city.json)
# arms the regression gates — a sustained-updates/s floor and a query-p99
# ceiling read before the fresh run overwrites the artifact — and fails a
# run whose seed, fleet, subscriptions or ticks differ from the baseline's.
# Nightly CI passes CITY_BASELINE=BENCH_city.json.
CITY_BASELINE ?=
bench-city:
	$(GO) run ./cmd/figures -fig city -city-json BENCH_city.json $(if $(CITY_BASELINE),-city-baseline $(CITY_BASELINE))

# Per-package coverage floors for the subsystems whose correctness
# arguments live in their tests (dirty-set and patch-rule soundness, prune
# conservativeness, the envelope's exact above-the-level test, the
# distributed bound exchange, the live-serving
# core's session table and emit-lock ordering, the gateway's
# protocol/auth/SSE surface and its metric exposition, the tag
# predicate algebra, the index's copy-on-write batch step with the
# store's one maintenance route into it, the zone scan's neighbours:
# Brent's root finder and the IPAC-NN tree built on it, and the one query
# route: the engine every Request runs on and the UQL compiler that feeds
# it, the line protocol whose packed ingest reply is the only one that
# carries plans — the ones the router cannot splice back from its own
# updates — the probability kernels under every P > 0 request:
# Eq. 5's integrator and the location pdfs it integrates, and the motion
# model and planar geometry every layer above stands on: the trajectory
# codec and interpolation, and the disk/box kernels of the index and the
# within-distance probability). Writes COVERAGE.txt and fails below 80%.
COVER_PKGS = ./internal/continuous ./internal/prune ./internal/envelope ./internal/cluster ./internal/serve ./internal/gateway ./internal/metrics ./internal/textidx ./internal/sindex ./internal/mod ./internal/numeric ./internal/core ./internal/engine ./internal/uql ./internal/modserver ./internal/uncertain ./internal/updf ./internal/trajectory ./internal/geom
cover:
	@set -e; rm -f COVERAGE.txt; \
	for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=cover.out.tmp $$pkg >/dev/null; \
		pct=$$($(GO) tool cover -func=cover.out.tmp | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg $$pct%" | tee -a COVERAGE.txt; \
		awk -v p="$$pct" 'BEGIN { exit (p+0 >= 80) ? 0 : 1 }' || { echo "coverage $$pct% < 80% in $$pkg"; rm -f cover.out.tmp; exit 1; }; \
	done; rm -f cover.out.tmp

# Chaos gate (the CI `chaos` job): the seeded fault-injection matrix on
# the cluster serving layer (drop/delay/dial-error/partition on one shard
# of four — every query must succeed exactly via retry or answer degraded
# with missing-shard provenance), the kill-at-every-step WAL crash/restart
# simtest (recovery byte-identical to the mirror on every topology), and
# the wal/faultinject unit suites. All under the race detector.
chaos:
	$(GO) test -race -run 'TestFaultMatrixRetryOrDegraded|TestPartitionedShardDegradedAnswer|TestStrictRouterShardUnavailable|TestDialRefusedTyped|TestRetryRecoversFlakyDial|TestCancelMidRetry|TestDegradedAllShardsDownFails' ./internal/cluster
	$(GO) test -race -run 'TestCrashRecoveryByteIdentity' ./internal/simtest
	$(GO) test -race ./internal/wal ./internal/faultinject

# Nightly chaos soak: longer seeded worlds with fsync-per-append
# journaling and recovery at every step, plus a multi-seed fault-plan
# sweep on the degraded cluster. Reports and the final WAL directories
# land in CHAOS_DIR (uploaded as the nightly chaos artifact).
CHAOS_DIR ?= chaos-artifacts
chaos-soak:
	CHAOS_SOAK=1 CHAOS_DIR=$(abspath $(CHAOS_DIR)) $(GO) test -race -timeout 45m -run 'TestChaosSoak' -v ./internal/simtest ./internal/cluster

# Production-serving smoke (the CI `serve` job): build the Docker image,
# stand up the 2-shard TLS compose cluster behind the gateway, and drive
# the full loop from outside — authenticated TLS query, SSE subscribe,
# live ingest producing a diff event, 401 without a token, non-zero
# /metrics. Needs docker compose.
serve-smoke:
	./scripts/compose-smoke.sh

# Static analysis. The binary is optional locally; CI installs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs and runs it)"; \
	fi

# Non-test Go lines outside benchmark/ (a module of its own), grouped by
# package directory, total last.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Fails (with the offending file list) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go vet, then the dead-export gate: every exported top-level name under
# internal/, and every exported method of an exported type there, needs a
# non-test use or an entry with its reason in
# scripts/deadexports/allowlist.txt. Uses are resolved by type (go/types
# over `go list -deps`, the root module and the benchmark/ module both
# loaded as callers), so a name shared with another declaration hides
# nothing; a method is used when a non-test file calls it or an interface
# method it implements.
vet:
	$(GO) vet ./...
	$(GO) run ./scripts/deadexports

clean:
	$(GO) clean ./...
