package harness

import (
	"fmt"
	"io"
	"strings"

	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/serve"
	"hybridndp/internal/vclock"
)

// SLOOverload scales the measured host-only capacity into the SLO sweep's
// calibrated offered load: the rate, split evenly across tenants, is a mild
// overload of the host pool.
const SLOOverload = 1.25

// SLOOptions configures the open-loop serving-SLO experiment.
type SLOOptions struct {
	// Tenants defaults to three tenants (gold/silver/bronze weights 4/2/1)
	// with 5/10/20ms objectives.
	Tenants []serve.TenantConfig
	// Arrival defaults to a stationary Poisson process; when neither the spec
	// nor any tenant carries a rate, the sweep calibrates one at
	// SLOOverload × the measured host-only capacity split evenly across
	// tenants, so the default scenario is a genuine overload.
	Arrival serve.ArrivalSpec
	// Horizon is the arrival window (default 1 virtual second).
	Horizon vclock.Duration
	// Seed drives arrival generation (default 1).
	Seed int64
	// Queries defaults to the full JOB suite.
	Queries []*query.Query
	// QueueDepth passes through to serve.Config when > 0.
	QueueDepth int
	// UseDeadlines turns on deadline shedding (arrival + tenant SLO) in every
	// serving run.
	UseDeadlines bool
}

// SLOReport is the sweep's outcome: one serving run per policy over the
// identical arrival stream, plus the byte-stable rendered table and each
// policy's metrics dump (for determinism comparisons and -metrics output).
type SLOReport struct {
	Results []*serve.Result
	Dumps   []string
	Table   string
	// RatePerTenant is the effective default per-tenant rate (after
	// calibration, 0 when every tenant carries its own rate).
	RatePerTenant float64
}

// sloPolicies is the fixed policy order of the sweep (baselines first, the
// hybridNDP serving mode last).
var sloPolicies = []sched.Policy{sched.ForceHost, sched.ForceNDP, sched.Adaptive}

// SLOSweep is the serving-front-door experiment: measure the workload's cost
// table once (h.Workers in parallel), then play the identical open-loop
// multi-tenant arrival stream through the serve layer under force-host,
// force-ndp and adaptive placement, and account per-tenant tail latency
// against the SLOs. Under the default calibrated overload the forced
// baselines leave one pool idle and queue; adaptive spills across both pools
// and holds the tails down — the separation the table makes visible.
//
// Everything after Measure is a single-threaded virtual-time simulation, so
// the table and the per-policy dumps are byte-identical for any h.Workers.
func (h *H) SLOSweep(w io.Writer, opt SLOOptions) (*SLOReport, error) {
	queries := opt.Queries
	if len(queries) == 0 {
		queries = job.Queries()
	}
	ct, err := serve.Measure(h.DS, queries, h.Workers)
	if err != nil {
		return nil, err
	}
	tenants := opt.Tenants
	if len(tenants) == 0 {
		tenants = []serve.TenantConfig{
			{Name: "gold", Weight: 4, SLO: 5 * vclock.Millisecond, Skew: 1.3},
			{Name: "silver", Weight: 2, SLO: 10 * vclock.Millisecond, Skew: 1.3},
			{Name: "bronze", Weight: 1, SLO: 20 * vclock.Millisecond, Skew: 1.3},
		}
	}
	arrival := opt.Arrival
	if arrival.Kind == "" {
		arrival = serve.DefaultArrival()
	}
	report := &SLOReport{}
	if arrival.Kind != "trace" && arrival.Rate <= 0 && !anyTenantRate(tenants) {
		arrival.Rate = SLOOverload * ct.HostCapacityQPS(h.DS.Model.HostCores) / float64(len(tenants))
		report.RatePerTenant = arrival.Rate
	}

	var sb strings.Builder
	header(&sb, "Serving SLO — open-loop multi-tenant, JOB front door")
	fmt.Fprintf(&sb, "  arrival %s   horizon %s   seed %d   tenants %d\n\n",
		arrival, vclock.Duration(nz(float64(opt.Horizon), float64(vclock.Second))), nzi(opt.Seed, 1), len(tenants))
	for _, pol := range sloPolicies {
		reg := obs.NewRegistry()
		srv, err := serve.New(h.DS, ct, serve.Config{
			Tenants:      tenants,
			Arrival:      arrival,
			Policy:       pol,
			QueueDepth:   opt.QueueDepth,
			Horizon:      opt.Horizon,
			Seed:         opt.Seed,
			Metrics:      reg,
			Queries:      queries,
			UseDeadlines: opt.UseDeadlines,
		})
		if err != nil {
			return nil, err
		}
		res, err := srv.Run()
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, res)
		report.Dumps = append(report.Dumps, reg.Dump())
		fmt.Fprintf(&sb, "  %-9s completed %d/%d   throughput %8.2f q/s   makespan %s   cache h/m/e %d/%d/%d\n",
			pol, res.Completed, res.Requests, res.ThroughputQPS, ms(res.Makespan),
			res.CacheHits, res.CacheMisses, res.CacheEvictions)
		for _, tr := range res.Tenants {
			fmt.Fprintf(&sb, "    %-8s w%-2d req %5d done %5d quota %4d qfull %4d   p50 %s p95 %s p99 %s   miss %4d (%5.1f%%)\n",
				tr.Name, tr.Weight, tr.Requests, tr.Completed, tr.QuotaRejected, tr.QueueRejected,
				ms(tr.P50), ms(tr.P95), ms(tr.P99), tr.SLOMissed, 100*tr.MissRate)
		}
		sb.WriteByte('\n')
	}
	report.Table = sb.String()
	if w != nil {
		if _, err := io.WriteString(w, report.Table); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// MissRate aggregates one run's SLO misses over its completions.
func MissRate(res *serve.Result) float64 {
	var missed, done int
	for _, tr := range res.Tenants {
		missed += tr.SLOMissed
		done += tr.Completed
	}
	if done == 0 {
		return 0
	}
	return float64(missed) / float64(done)
}

func anyTenantRate(tenants []serve.TenantConfig) bool {
	for _, tc := range tenants {
		if tc.RateQPS > 0 {
			return true
		}
	}
	return false
}

func nz(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

func nzi(v, def int64) int64 {
	if v != 0 {
		return v
	}
	return def
}
