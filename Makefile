# Tier-1 gate (see ROADMAP.md): build, vet, lint, tests — `make race` adds the
# race detector, which the executors' shared scratch pools, the metrics
# registry and the parallel sweep runners are tested under.

GO ?= go

.PHONY: all build vet lint test race bench bench-micro bench-check serve serve-smoke serve-determinism trace-smoke chaos chaos-slo fleet-smoke

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

# The package microbenchmarks perf PRs cite (LSM scans and gets, exec and expr kernels,
# timeline charges, the front end: parse, fingerprint, plan, decide, shard
# planning), one iteration each (a few seconds): a compile-and-run smoke so
# they cannot rot unseen, not a measurement — no timing gate.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/lsm ./internal/exec ./internal/expr ./internal/vclock \
		./internal/sql ./internal/query ./internal/optimizer ./internal/fleet

# The repo benchmark (BENCHMARK.json, bench/) is a module of its own that
# imports hybridndp/internal/...: vet and test it so a refactor that breaks a
# symbol the benchmark calls fails here, not in the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The serving sweep: policy × concurrency throughput table.
serve:
	$(GO) run ./cmd/hybridserve -sweep

# Serving determinism gate: the scheduler runs on virtual time only, so two
# runs of the sweep must print the same bytes, adaptive rows included.
serve-determinism:
	$(GO) run ./cmd/hybridserve -scale 0.01 -sweep > serve-sweep-a.txt
	$(GO) run ./cmd/hybridserve -scale 0.01 -sweep > serve-sweep-b.txt
	cmp serve-sweep-a.txt serve-sweep-b.txt
	rm -f serve-sweep-a.txt serve-sweep-b.txt

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
