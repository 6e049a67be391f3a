# Tier-1 gate (see ROADMAP.md): build, vet, lint, tests — `make race` adds the
# race detector, which the executors' shared scratch pools, the metrics
# registry and the parallel sweep runners are tested under. Each gate has one
# copy: a sweep `go test` already runs (the fleet-vs-single-device sweep, the
# untraced full-crash chaos sweep, the chaos-SLO sweep and its separation
# gate) has no make target of its own, and neither has the test-only-surface
# scan (`TestNoTestOnlySurface` in internal/analysis, skipped under -race).

GO ?= go

.PHONY: all build vet lint test race bench bench-micro bench-check examples serve serve-smoke serve-determinism trace-smoke chaos cli-smoke

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

# The package microbenchmarks perf PRs cite (LSM scans, gets, bulk loads and
# SST builds, the JOB load, exec and expr kernels, timeline charges, the front
# end: parse, fingerprint, plan, decide, shard planning, serving start-up's
# cost measurement), one iteration each (a few seconds): a compile-and-run
# smoke so they cannot rot unseen, not a measurement — no timing gate.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/lsm ./internal/job ./internal/exec ./internal/expr ./internal/vclock \
		./internal/sql ./internal/query ./internal/optimizer ./internal/fleet ./internal/table ./internal/serve

# The repo benchmark (BENCHMARK.json, bench/) is a module of its own that
# imports hybridndp/internal/...: vet and test it so a refactor that breaks a
# symbol the benchmark calls fails here, not in the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every example under examples/, run end to end (a few seconds together):
# building them is not enough to catch an example that fails at run time. The
# tracing example writes trace.json, removed again here.
examples:
	for e in examples/*/; do $(GO) run ./$$e >/dev/null || exit 1; done
	rm -f trace.json

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
# end-to-end (SQL sessions → plan cache → WFQ → lanes; neither tenant sets a
# quota) with zero errors and a non-empty table; hybridserve exits non-zero
# otherwise.
serve-smoke:
	$(GO) run ./cmd/hybridserve -scale 0.01 -tenants 2 -arrival poisson:100 -slo 10ms -horizon 300ms >/dev/null

# CLI smoke for the two commands no other gate runs (under 2 s together):
# hybridndp's strategy sweep and one labelled strategy, a lower-case label it
# must reject (labels parse strictly), a parsed SQL join it prints back
# through sql.Render, and the Table 2 profile printer.
cli-smoke:
	$(GO) run ./cmd/hybridndp -scale 0.01 -query 8c -strategy sweep >/dev/null
	$(GO) run ./cmd/hybridndp -scale 0.01 -query 8c -strategy H0 >/dev/null
	! $(GO) run ./cmd/hybridndp -scale 0.01 -query 8c -strategy h3 >/dev/null 2>&1
	$(GO) run ./cmd/hybridndp -scale 0.01 -sql 'SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk WHERE t.id = mk.movie_id AND t.production_year > 2005' -strategy native >/dev/null
	$(GO) run ./cmd/hwprofile >/dev/null

# Observability smoke: trace one hybrid JOB query (single buffer slot so the
# device's back-pressure stall is visible) and a 4-device fleet serving run,
# and validate both Chrome traces.
trace-smoke:
	$(GO) run ./cmd/jobbench -scale 0.05 -slots 1 -trace "8d@H1:trace.json" >/dev/null
	$(GO) run ./cmd/tracecheck -slots trace.json
	rm -f trace.json
	$(GO) run ./cmd/hybridserve -scale 0.01 -devices 4 -fleet range -repeat 1 -trace fleet-trace.json >/dev/null
	$(GO) run ./cmd/tracecheck fleet-trace.json
	rm -f fleet-trace.json

# Chaos trace gate: a traced chaos query must show the retry/fallback spans
# nested under its query root. (That every JOB query survives a 100%-crash
# device with host-native results is TestChaosSweepFullCrashMatchesHost.)
chaos:
	$(GO) run ./cmd/jobbench -scale 0.01 -faults "dev.crash=1" -trace "8d@H1:chaos-trace.json" >/dev/null
	$(GO) run ./cmd/tracecheck -chaos chaos-trace.json
	rm -f chaos-trace.json
