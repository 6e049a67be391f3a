package harness

import (
	"fmt"
	"io"
	"strings"

	"hybridndp/internal/fault"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/serve"
	"hybridndp/internal/vclock"
)

// chaosOverload scales the measured host-only capacity into the chaos sweep's
// calibrated offered load: deep overload, so host-only genuinely saturates and
// offload capacity decides the tail (the plain sweep's mild SLOOverload
// leaves the host pool able to absorb the whole stream and every policy ties).
const chaosOverload = 2.5

// ChaosSLOOptions configures the chaos-driven serving-SLO experiment.
type ChaosSLOOptions struct {
	// Faults is the active fault spec (default "dev1:dev.stall=2ms,seed=1" —
	// one slow fleet member, the scenario hedging exists for).
	Faults string
	// Devices is the fleet size (default 4, range-partitioned).
	Devices int
	// Tenants defaults to two tenants (gold/bronze weights 3/1, 5/20ms SLOs).
	Tenants []serve.TenantConfig
	// Arrival defaults to a stationary Poisson process calibrated at
	// chaosOverload × measured host-only capacity split across tenants.
	Arrival serve.ArrivalSpec
	// Horizon is the arrival window (default 1 virtual second).
	Horizon vclock.Duration
	// Seed drives arrival generation (default 1).
	Seed int64
	// Queries defaults to the full JOB suite.
	Queries []*query.Query
}

// chaosCombos is the fixed run order: three no-hedge rows off the plain
// chaos table, then the hedged device policies off the hedged table.
var chaosCombos = []struct {
	Label  string
	Policy sched.Policy
	Hedged bool
}{
	{"force-host", sched.ForceHost, false},
	{"force-ndp", sched.ForceNDP, false},
	{"adaptive", sched.Adaptive, false},
	{"ndp+hedge", sched.ForceNDP, true},
	{"adaptive+hedge", sched.Adaptive, true},
}

// Indexes into ChaosSLOReport.Results, per chaosCombos order.
const (
	ChaosForceHost = iota
	ChaosForceNDP
	ChaosAdaptive
	ChaosNDPHedge
	ChaosAdaptiveHedge
)

// ChaosSLOReport is the chaos sweep's outcome: one serving run per
// policy×hedge combo over the identical arrival stream, plus the byte-stable
// rendered table and per-run metrics dumps.
type ChaosSLOReport struct {
	Labels        []string
	Results       []*serve.Result
	Dumps         []string
	Table         string
	RatePerTenant float64
}

// WorstP99 is a run's worst per-tenant p99 — the sweep's tail measure.
func WorstP99(res *serve.Result) vclock.Duration {
	var worst vclock.Duration
	for _, tr := range res.Tenants {
		if tr.P99 > worst {
			worst = tr.P99
		}
	}
	return worst
}

// Gate checks the chaos separation this sweep exists to prove: with one
// fleet member stalled, adaptive placement with hedged shard execution must
// hold a strictly lower worst-tenant p99 AND a strictly lower SLO-miss rate
// than both the force-host baseline and unhedged adaptive. A nil return is a
// pass; the error names the first violated comparison.
func (r *ChaosSLOReport) Gate() error {
	ah := r.Results[ChaosAdaptiveHedge]
	for _, base := range []int{ChaosForceHost, ChaosAdaptive} {
		b := r.Results[base]
		if WorstP99(ah) >= WorstP99(b) {
			return fmt.Errorf("chaos-slo gate: %s p99 %v not below %s p99 %v",
				r.Labels[ChaosAdaptiveHedge], WorstP99(ah), r.Labels[base], WorstP99(b))
		}
		if MissRate(ah) >= MissRate(b) {
			return fmt.Errorf("chaos-slo gate: %s miss rate %.4f not below %s %.4f",
				r.Labels[ChaosAdaptiveHedge], MissRate(ah), r.Labels[base], MissRate(b))
		}
	}
	return nil
}

// ChaosSLOSweep is the end-to-end robustness experiment: measure the
// workload's cost table through a fleet with an active fault plan — once
// unhedged, once with hedged shard execution — then play the identical
// open-loop multi-tenant arrival stream through the serve layer under five
// policy×hedge combos and account per-tenant tail latency against the SLOs.
//
// Chaos reaches serving through the measurement: the per-device stall
// inflates every device-path service time the open-loop simulation replays,
// and hedging caps that inflation at roughly the shard's host-backup cost.
// Under the calibrated overload, force-host queues on saturated host lanes,
// unhedged adaptive offloads into stall-inflated device paths, and hedged
// adaptive offloads into capped ones — the separation Gate enforces. Every
// fleet execution is fingerprint-checked against host-native inside
// MeasureFleet, so the table doubles as a correctness gate under faults.
//
// Everything after the measurements is a single-threaded virtual-time
// simulation, and the measurements run h.Workers in parallel; the rendered
// table and per-run dumps are byte-identical for any h.Workers.
func (h *H) ChaosSLOSweep(w io.Writer, opt ChaosSLOOptions) (*ChaosSLOReport, error) {
	spec := opt.Faults
	if spec == "" {
		spec = "dev1:dev.stall=2ms,seed=1"
	}
	pl, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	devices := opt.Devices
	if devices <= 0 {
		devices = 4
	}
	queries := opt.Queries
	if len(queries) == 0 {
		queries = job.Queries()
	}
	desc, err := fleet.Build(h.DS.Cat, devices, fleet.SchemeRange)
	if err != nil {
		return nil, err
	}
	newFX := func(hedged bool) *fleet.Executor {
		fx := fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc)
		fx.Faults = pl
		if hedged {
			fx.Hedge = fleet.HedgeConfig{Enabled: true}
		}
		return fx
	}
	ctPlain, err := serve.MeasureFleet(h.DS, queries, newFX(false), h.Workers)
	if err != nil {
		return nil, err
	}
	ctHedge, err := serve.MeasureFleet(h.DS, queries, newFX(true), h.Workers)
	if err != nil {
		return nil, err
	}

	tenants := opt.Tenants
	if len(tenants) == 0 {
		tenants = []serve.TenantConfig{
			{Name: "gold", Weight: 3, SLO: 5 * vclock.Millisecond, Skew: 1.3},
			{Name: "bronze", Weight: 1, SLO: 20 * vclock.Millisecond, Skew: 1.3},
		}
	}
	arrival := opt.Arrival
	if arrival.Kind == "" {
		arrival = serve.DefaultArrival()
	}
	report := &ChaosSLOReport{}
	if arrival.Kind != "trace" && arrival.Rate <= 0 && !anyTenantRate(tenants) {
		// Both tables share the host column (the fallback lane never runs
		// through the fleet), so calibration off either is identical.
		arrival.Rate = chaosOverload * ctPlain.HostCapacityQPS(h.DS.Model.HostCores) / float64(len(tenants))
		report.RatePerTenant = arrival.Rate
	}

	var sb strings.Builder
	header(&sb, "Chaos SLO — open-loop serving under injected faults")
	fmt.Fprintf(&sb, "  faults %s   fleet %d-dev range   arrival %s   horizon %s   seed %d   tenants %d\n\n",
		pl, devices, arrival, vclock.Duration(nz(float64(opt.Horizon), float64(vclock.Second))), nzi(opt.Seed, 1), len(tenants))
	for _, combo := range chaosCombos {
		ct := ctPlain
		if combo.Hedged {
			ct = ctHedge
		}
		reg := obs.NewRegistry()
		srv, err := serve.New(h.DS, ct, serve.Config{
			Tenants: tenants,
			Arrival: arrival,
			Policy:  combo.Policy,
			Horizon: opt.Horizon,
			Seed:    opt.Seed,
			Metrics: reg,
			Queries: queries,
		})
		if err != nil {
			return nil, err
		}
		res, err := srv.Run()
		if err != nil {
			return nil, err
		}
		report.Labels = append(report.Labels, combo.Label)
		report.Results = append(report.Results, res)
		report.Dumps = append(report.Dumps, reg.Dump())
		fmt.Fprintf(&sb, "  %-14s completed %d/%d   throughput %8.2f q/s   makespan %s   worst-p99 %s   miss %5.1f%%\n",
			combo.Label, res.Completed, res.Requests, res.ThroughputQPS, ms(res.Makespan),
			ms(WorstP99(res)), 100*MissRate(res))
		for _, tr := range res.Tenants {
			fmt.Fprintf(&sb, "    %-8s w%-2d req %5d done %5d quota %4d qfull %4d dl %4d   p50 %s p95 %s p99 %s   miss %4d (%5.1f%%)\n",
				tr.Name, tr.Weight, tr.Requests, tr.Completed, tr.QuotaRejected, tr.QueueRejected, tr.DeadlineRejected,
				ms(tr.P50), ms(tr.P95), ms(tr.P99), tr.SLOMissed, 100*tr.MissRate)
		}
		sb.WriteByte('\n')
	}
	if err := report.Gate(); err == nil {
		sb.WriteString("  gate: PASS (adaptive+hedge beats force-host and unhedged adaptive on worst-p99 and miss rate)\n")
	} else {
		fmt.Fprintf(&sb, "  gate: FAIL — %v\n", err)
	}
	report.Table = sb.String()
	if w != nil {
		if _, err := io.WriteString(w, report.Table); err != nil {
			return nil, err
		}
	}
	return report, nil
}
