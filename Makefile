# Tier-1 gate (see ROADMAP.md): build, vet, lint, tests — `make race` adds the
# race detector, which the concurrent scheduler's stress tests rely on.

GO ?= go
# Where bench-json writes its snapshot. A PR that lands one as the new point of
# the committed trajectory names it: make bench-json BENCH_OUT=BENCH_PR<n>.json
BENCH_OUT ?= bench-snapshot.json

.PHONY: all build vet lint test race bench bench-check bench-json benchdiff serve serve-smoke trace-smoke chaos chaos-slo fleet-smoke

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hybridlint: the in-tree suite of eight analyzers (wallclock, lockcheck,
# maporder, vtunits, chargecheck, spanbalance, errsink, detsched) enforcing
# virtual-time and determinism discipline. See DESIGN.md §8.
lint:
	$(GO) run ./cmd/hybridlint -budget 15s ./...

test:
	$(GO) test ./...

# The harness package's determinism suites (parallel sweep, chaos, fleet)
# exceed go test's default 10-minute package timeout under the race detector.
race:
	$(GO) test -race -timeout 30m ./...

# Virtual-time benchmarks (one pass each; wall ns/op only measures the
# simulator). HYBRIDNDP_SCALE overrides the dataset scale.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# The repo benchmark (BENCHMARK.json, bench/) is a module of its own that
# imports hybridndp/internal/...: vet and test it so a refactor that breaks a
# symbol the benchmark calls fails here, not in the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Wall-clock perf trajectory: snapshot ns/op, B/op, allocs/op of the hot-path
# microbenchmarks (and one whole JOB query on a warm executor), the full JOB
# sweep, the fleet scale-out sweep and the open-loop serving loop into
# $(BENCH_OUT) (diffable across PRs; non-gating CI artifact). The exec
# benchmarks run 5 iterations for stable allocs/op; the sweeps run once — they
# are the wall-clock headline.
bench-json:
	( $(GO) test -run '^$$' -bench 'ScanFilter|HashJoin|JoinStep|GroupAggregate|SteadyStateQuery' -benchmem -benchtime=5x ./internal/exec/ ; \
	  $(GO) test -run '^$$' -bench 'Fig12JOBSweep|FleetSweep|ServeOpenLoop' -benchmem -benchtime=1x -timeout 30m . ) | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# Non-gating perf-trajectory diff: ns/op (plus B/op, allocs/op) deltas of
# $(BENCH_OUT) against the newest committed BENCH_PR*.json snapshot.
benchdiff:
	$(GO) run ./cmd/benchdiff $$(ls BENCH_PR*.json | sort -V | tail -1) $(BENCH_OUT)

# The serving sweep: policy × concurrency throughput table.
serve:
	$(GO) run ./cmd/hybridserve -sweep

# Serving front-door gate: the open-loop SLO sweep must run two tenants
# end-to-end (SQL sessions → plan cache → quotas → WFQ → lanes) with zero
# errors and a non-empty table; hybridserve exits non-zero otherwise.
serve-smoke:
	$(GO) run ./cmd/hybridserve -scale 0.01 -tenants 2 -arrival poisson:100 -slo 10ms -horizon 300ms >/dev/null

# Observability smoke: trace one hybrid JOB query (single buffer slot so the
# device's back-pressure stall is visible) and validate the Chrome trace.
trace-smoke:
	$(GO) run ./cmd/jobbench -scale 0.05 -slots 1 -trace "8d@H1:trace.json" >/dev/null
	$(GO) run ./cmd/tracecheck -slots trace.json
	rm -f trace.json

# Fleet gate: the 4-device scatter-gather sweep must answer every JOB query
# byte-identically (fingerprint) to the single-device baseline; jobbench exits
# non-zero on any mismatch or error.
fleet-smoke:
	$(GO) run ./cmd/jobbench -scale 0.01 -devices 1,4 -workers 4 >/dev/null

# Chaos gate: every JOB query must survive a 100%-crash device (retry, then
# host fallback) with results identical to host-native, and a traced chaos
# query must show the retry/fallback spans nested under its query root.
chaos:
	$(GO) run ./cmd/jobbench -scale 0.01 -faults "dev.crash=1" >/dev/null
	$(GO) run ./cmd/jobbench -scale 0.01 -faults "dev.crash=1" -trace "8d@H1:chaos-trace.json" >/dev/null
	$(GO) run ./cmd/tracecheck -chaos chaos-trace.json
	rm -f chaos-trace.json

# Chaos-SLO gate: cost tables measured through a 4-device fleet with one
# stalled member (unhedged and hedged), then the identical open-loop arrival
# stream through five policy×hedge combos. hybridserve exits non-zero unless
# adaptive placement + hedged shard execution strictly beats both force-host
# and unhedged adaptive on worst-tenant p99 and SLO-miss rate (or if any
# fleet result mismatches the host-native fingerprint).
chaos-slo:
	$(GO) run ./cmd/hybridserve -scale 0.01 -faults "dev1:dev.stall=2ms,seed=1" -arrival poisson >/dev/null
