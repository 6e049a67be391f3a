// Command hybridserve replays a JOB query mix through the query scheduler and
// prints the serving statistics: admission/degradation counts, queue waits
// per priority class, pool busy times and the virtual throughput. Standard
// output is computed on virtual time only and repeats byte for byte; the load
// and wall-time figures go to standard error.
//
// Usage:
//
//	hybridserve                              # adaptive policy, JOB mix ×3
//	hybridserve -policy host                 # always-host baseline
//	hybridserve -policy ndp -workers 4       # always-NDP, 4 workers
//	hybridserve -sweep                       # policy × concurrency table
//	hybridserve -devices 4 -repeat 5         # bigger fleet, longer mix
//
// Open-loop SLO mode (the serving front door: SQL sessions, shared plan
// cache, per-tenant quotas and weighted fair queuing) — active whenever
// -tenants, -arrival or -slo is given. It plays the identical arrival stream
// through force-host, force-ndp and adaptive placement and prints the
// per-tenant p50/p95/p99 and SLO-miss table:
//
//	hybridserve -tenants 3 -arrival poisson:200 -slo 10ms
//	hybridserve -tenants gold:4:150:5,bronze:1:50:20 -arrival burst:80:50:0.2:5
//	hybridserve -tenants 3 -slo 10ms -metrics   # plus per-policy registry dumps
//
// Chaos-SLO mode — active when -faults is combined with open-loop SLO mode.
// The workload's cost table is measured through a fault-injected fleet (once
// unhedged, once with hedged shard execution) and the identical arrival
// stream plays through five policy×hedge combos; the run exits non-zero
// unless adaptive+hedge strictly beats both force-host and unhedged adaptive
// on worst-tenant p99 and SLO-miss rate:
//
//	hybridserve -faults "dev1:dev.stall=2ms,seed=1" -arrival poisson
//	hybridserve -faults "dev1:dev.stall=2ms,seed=1" -arrival poisson -deadlines
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hybridndp/internal/fault"
	"hybridndp/internal/fleet"
	"hybridndp/internal/harness"
	"hybridndp/internal/hw"
	"hybridndp/internal/obs"
	"hybridndp/internal/sched"
	"hybridndp/internal/serve"
	"hybridndp/internal/vclock"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0.01, "JOB dataset scale (1.0 ≈ 3.9M rows)")
		policy  = flag.String("policy", "adaptive", "adaptive | host | ndp")
		workers = flag.Int("workers", 16, "host-lane pool size (capped at the model's host cores)")
		queue   = flag.Int("queue", 0, "admission queue depth (0 = sized to the mix)")
		devices = flag.Int("devices", 1, "smart-storage fleet size")
		repeat  = flag.Int("repeat", 3, "times the JOB suite is replayed")
		timeout = flag.Duration("timeout", 0, "per-query admission timeout on the virtual clock (0 = none)")
		sweep   = flag.Bool("sweep", false, "run the policy × concurrency sweep instead")
		traceF  = flag.String("trace", "",
			"write a merged Chrome trace_event JSON of every served query to this file")
		metrics = flag.Bool("metrics", false,
			"record scheduler/executor metrics and print the registry dump at the end")
		faults = flag.String("faults", "",
			"fault-injection spec (see jobbench -faults): serve the mix with device faults injected; recovery retries, host fallback and circuit breaking keep queries answering")
		fleetSpec = flag.String("fleet", "",
			"serve through sharded fleet scatter-gather execution with this partitioning spec (range | stripe | stripe:<n>); shard admission shares the scheduler's ledger and breakers, and -devices sets the fleet size")
		tenantsF = flag.String("tenants", "",
			"open-loop SLO mode: tenant count, or comma-separated name:weight[:qps[:slo_ms]] specs (qps = offered rate; omitted fields default)")
		arrivalF = flag.String("arrival", "",
			"open-loop arrival process: poisson[:qps] | burst:<qps>:<period_ms>:<duty>:<mult> | trace:<ms>,<ms>,... (activates open-loop SLO mode)")
		sloF = flag.Duration("slo", 0,
			"default per-tenant latency objective for open-loop SLO mode (virtual time; 0 = 10ms for count-form tenants)")
		horizonF = flag.Duration("horizon", time.Second,
			"open-loop arrival window in virtual time")
		seedF     = flag.Int64("seed", 1, "open-loop arrival/selection seed")
		deadlineF = flag.Duration("deadline", 0,
			"per-request deadline for batch serving mode, on the virtual clock: bounds both the queue wait and the execution budget; expired requests reject with sched.ErrExpired, deadline-pressed fleet shards degrade to host")
		deadlinesB = flag.Bool("deadlines", false,
			"open-loop SLO/chaos mode: shed requests whose earliest feasible completion would already blow arrival + tenant SLO (serve.ErrDeadlineExceeded)")
		hedgeB = flag.Bool("hedge", false,
			"enable hedged shard execution in batch fleet mode: slow shards get a host-native backup and the earlier virtual finisher wins")
	)
	flag.Parse()

	var pol sched.Policy
	switch strings.ToLower(*policy) {
	case "adaptive":
		pol = sched.Adaptive
	case "host":
		pol = sched.ForceHost
	case "ndp":
		pol = sched.ForceNDP
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q (adaptive | host | ndp)\n", *policy)
		os.Exit(2)
	}

	start := time.Now()
	fmt.Printf("loading JOB at scale %g ...\n", *scale)
	h, err := harness.New(*scale, hw.Cosmos())
	if err != nil {
		fatal(err)
	}
	// Wall-clock figures go to stderr: stdout is virtual time only and repeats
	// byte for byte.
	fmt.Fprintf(os.Stderr, "loaded in %v\n", time.Since(start).Round(time.Millisecond))

	if *tenantsF != "" || *arrivalF != "" || *sloF != 0 {
		if *faults != "" {
			if err := chaosOpenLoop(h, *faults, *tenantsF, *arrivalF, *sloF, *horizonF,
				*seedF, *workers, *devices, *metrics, *deadlinesB); err != nil {
				fatal(err)
			}
		} else if err := openLoop(h, *tenantsF, *arrivalF, *sloF, *horizonF, *seedF, *workers, *queue, *metrics, *deadlinesB); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wall time %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	var faultPlan *fault.Plan
	if *faults != "" {
		p, err := fault.Parse(*faults)
		if err != nil {
			fatal(err)
		}
		faultPlan = p
		h.Exec.Faults = p
		fmt.Printf("fault injection active: %s\n", p)
	}

	if *sweep {
		if _, err := h.ServingSweep(os.Stdout, nil); err != nil {
			fatal(err)
		}
		return
	}

	mix := harness.ServingMix(*repeat)
	cfg := sched.DefaultConfig()
	cfg.Policy = pol
	cfg.Workers = *workers
	cfg.Devices = *devices
	cfg.QueryTimeout = vclock.FromStd(*timeout)
	cfg.QueueDepth = *queue
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * len(mix)
	}

	var reg *obs.Registry
	if *metrics {
		reg = h.BindMetrics(obs.NewRegistry())
		cfg.Metrics = reg
	}
	var traces *obs.TraceSet
	if *traceF != "" {
		traces = obs.NewTraceSet()
		cfg.Traces = traces
	}
	if *fleetSpec != "" {
		desc, err := fleet.Build(h.DS.Cat, cfg.Devices, *fleetSpec)
		if err != nil {
			fatal(err)
		}
		if err := desc.Validate(h.DS.Cat); err != nil {
			fatal(err)
		}
		cfg.Fleet = fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc)
		cfg.Fleet.Faults = faultPlan
		if *hedgeB {
			cfg.Fleet.Hedge = fleet.HedgeConfig{Enabled: true}
			fmt.Println("hedged shard execution active")
		}
		fmt.Printf("fleet execution active:\n%s", desc)
	} else if *hedgeB {
		fatal(fmt.Errorf("-hedge requires -fleet (hedging is per-shard)"))
	}

	fmt.Printf("serving %d queries (%s policy, %d workers, %d device(s)) ...\n",
		len(mix), pol, cfg.Workers, cfg.Devices)
	s := sched.New(h.Opt, h.Exec, h.DS.Model, cfg)
	dl := sched.Deadline{Queue: vclock.FromStd(*deadlineF), Exec: vclock.FromStd(*deadlineF)}
	for i, q := range mix {
		if _, err := s.SubmitDeadline(context.Background(), q, sched.Priority(i%3), dl); err != nil {
			s.Close()
			fatal(fmt.Errorf("submit %s: %w", q.Name, err))
		}
	}
	s.Close()
	st := s.Stats()
	fmt.Println()
	fmt.Print(st)
	if traces != nil {
		f, err := os.Create(*traceF)
		if err != nil {
			fatal(err)
		}
		if err := traces.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d traces)\n", *traceF, len(traces.Traces()))
	}
	if reg != nil {
		h.PublishStorage(reg)
		fmt.Println("\nmetrics")
		fmt.Println("-------")
		fmt.Print(reg.Dump())
	}
	fmt.Fprintf(os.Stderr, "wall time %v\n", time.Since(start).Round(time.Millisecond))
	if st.Errors > 0 {
		os.Exit(1)
	}
}

// openLoop runs the serving-front-door experiment: the SLO sweep over the
// three policies with the identical arrival stream, printing the per-tenant
// tail-latency table (and, with -metrics, each policy's registry dump).
func openLoop(h *harness.H, tenantsSpec, arrivalSpec string, slo, horizon time.Duration, seed int64, workers, queue int, metrics, deadlines bool) error {
	defSLO := vclock.FromStd(slo)
	if defSLO <= 0 {
		defSLO = 10 * vclock.Millisecond
	}
	tenants, err := parseTenants(tenantsSpec, defSLO)
	if err != nil {
		return err
	}
	opt := harness.SLOOptions{
		Tenants:      tenants,
		Horizon:      vclock.FromStd(horizon),
		Seed:         seed,
		Workers:      workers,
		QueueDepth:   queue,
		UseDeadlines: deadlines,
	}
	if arrivalSpec != "" {
		spec, err := serve.ParseArrival(arrivalSpec)
		if err != nil {
			return err
		}
		opt.Arrival = spec
	}
	rep, err := h.SLOSweep(os.Stdout, opt)
	if err != nil {
		return err
	}
	if rep.RatePerTenant > 0 {
		fmt.Printf("calibrated offered load: %.2f q/s per tenant (%.2f×%d over host capacity)\n",
			rep.RatePerTenant, 1.25, len(rep.Results[0].Tenants))
	}
	if metrics {
		for i, res := range rep.Results {
			fmt.Printf("\nmetrics (%s)\n--------\n%s", res.Policy, rep.Dumps[i])
		}
	}
	var completed int
	for _, res := range rep.Results {
		completed += res.Completed
	}
	if len(rep.Results) == 0 || completed == 0 {
		return fmt.Errorf("open-loop sweep completed no requests (empty table)")
	}
	return nil
}

// chaosOpenLoop runs the chaos-SLO sweep: fault-injected fleet cost
// measurement (unhedged and hedged), then the identical open-loop arrival
// stream through five policy×hedge combos. It fails — making `make chaos-slo`
// a real gate — when the separation the hedging subsystem exists for does not
// hold: adaptive+hedge must strictly beat both force-host and unhedged
// adaptive on worst-tenant p99 and SLO-miss rate.
func chaosOpenLoop(h *harness.H, faults, tenantsSpec, arrivalSpec string, slo, horizon time.Duration,
	seed int64, workers, devices int, metrics, deadlines bool) error {
	opt := harness.ChaosSLOOptions{
		Faults:       faults,
		Horizon:      vclock.FromStd(horizon),
		Seed:         seed,
		Workers:      workers,
		UseDeadlines: deadlines,
	}
	if devices > 1 {
		opt.Devices = devices
	}
	if tenantsSpec != "" {
		defSLO := vclock.FromStd(slo)
		if defSLO <= 0 {
			defSLO = 10 * vclock.Millisecond
		}
		tenants, err := parseTenants(tenantsSpec, defSLO)
		if err != nil {
			return err
		}
		opt.Tenants = tenants
	}
	if arrivalSpec != "" {
		spec, err := serve.ParseArrival(arrivalSpec)
		if err != nil {
			return err
		}
		opt.Arrival = spec
	}
	rep, err := h.ChaosSLOSweep(os.Stdout, opt)
	if err != nil {
		return err
	}
	if rep.RatePerTenant > 0 {
		fmt.Printf("calibrated offered load: %.2f q/s per tenant\n", rep.RatePerTenant)
	}
	if metrics {
		for i, res := range rep.Results {
			fmt.Printf("\nmetrics (%s %s)\n--------\n%s", rep.Labels[i], res.Policy, rep.Dumps[i])
		}
	}
	return rep.Gate()
}

// parseTenants accepts either a tenant count ("3") or comma-separated
// name:weight[:qps[:slo_ms]] specs.
func parseTenants(s string, defSLO vclock.Duration) ([]serve.TenantConfig, error) {
	if s == "" {
		s = "3"
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 || n > 64 {
			return nil, fmt.Errorf("tenant count %d out of range [1,64]", n)
		}
		return serve.DefaultTenants(n, defSLO), nil
	}
	var out []serve.TenantConfig
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 4 || fields[0] == "" {
			return nil, fmt.Errorf("tenant spec %q: want name:weight[:qps[:slo_ms]]", part)
		}
		weight, err := strconv.Atoi(fields[1])
		if err != nil || weight < 1 {
			return nil, fmt.Errorf("tenant spec %q: bad weight %q", part, fields[1])
		}
		tc := serve.TenantConfig{Name: fields[0], Weight: weight, SLO: defSLO, Skew: 1.3}
		if len(fields) >= 3 {
			qps, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || qps < 0 {
				return nil, fmt.Errorf("tenant spec %q: bad qps %q", part, fields[2])
			}
			tc.RateQPS = qps
		}
		if len(fields) == 4 {
			ms, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || ms <= 0 {
				return nil, fmt.Errorf("tenant spec %q: bad slo_ms %q", part, fields[3])
			}
			tc.SLO = vclock.Duration(ms) * vclock.Millisecond
		}
		out = append(out, tc)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridserve:", err)
	os.Exit(1)
}
