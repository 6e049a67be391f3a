package serve

import (
	"fmt"

	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/par"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// QueryCost is one workload query's measured virtual service times, the
// inputs to open-loop placement. Every distinct (query, strategy) pair runs
// exactly once for real through the cooperative executor; the serving loop
// then replays the memoized durations. That memoization is exact, not an
// approximation: executions use fresh per-run engines and virtual timelines,
// so a query's elapsed under a strategy is a constant of the dataset seed
// (the same property the parallel sweep runner rests on).
type QueryCost struct {
	Decision *optimizer.Decision
	Decided  coop.Strategy
	// Host is the host-native elapsed time (always available — the fallback
	// lane of every policy, and the canonical DRR work unit).
	Host vclock.Duration
	// Dec is the decided strategy's elapsed (equal to Host when the decision
	// is host-native).
	Dec vclock.Duration
	// NDP is the full-NDP elapsed when the whole plan fits device memory.
	NDP         vclock.Duration
	NDPFeasible bool
}

// CostTable holds measured costs for a whole workload, shareable across
// servers (the SLO sweep measures once and serves three policies from it).
type CostTable struct {
	byName   map[string]*QueryCost
	names    []string
	meanHost vclock.Duration
}

// Cost returns one query's measured costs.
func (ct *CostTable) Cost(name string) (*QueryCost, bool) {
	qc, ok := ct.byName[name]
	return qc, ok
}

// MeanHostNs reports the unweighted mean host-native service time.
func (ct *CostTable) MeanHost() vclock.Duration { return ct.meanHost }

// HostCapacityQPS estimates the host-only saturation throughput for `lanes`
// host lanes under a uniform query mix — the calibration anchor for overload
// scenarios (offered load above this rate must queue under force-host).
func (ct *CostTable) HostCapacityQPS(lanes int) float64 {
	if lanes < 1 {
		lanes = 1
	}
	if ct.meanHost <= 0 {
		return 0
	}
	return float64(lanes) / ct.meanHost.Seconds()
}

// Measure runs the workload's cost measurement: per query, the optimizer's
// decision plus real executions of the host-native path, the decided split
// and (when the plan fits device memory) full NDP. workers bounds wall-clock
// parallelism only — each (query, strategy) execution is independently
// deterministic, and results land in pre-sized per-index slots, so the table
// is byte-identical for any worker count.
func Measure(ds *job.Dataset, queries []*query.Query, workers int) (*CostTable, error) {
	return MeasureBatched(ds, queries, workers, 0)
}

// MeasureBatched is Measure with an explicit columnar batch row capacity for
// the measuring executor (0 = exec.DefaultBatchSize). Virtual costs are
// byte-identical at every batch size; the parameter exists so the golden
// suite can prove it on the serving surface too.
func MeasureBatched(ds *job.Dataset, queries []*query.Query, workers, batchSize int) (*CostTable, error) {
	return measure(ds, queries, workers, batchSize,
		func(ex *coop.Executor, d *optimizer.Decision, s coop.Strategy, _ *coop.Report) (vclock.Duration, error) {
			rep, err := ex.Run(d.Plan, s)
			if err != nil {
				return 0, err
			}
			return rep.Elapsed, nil
		})
}

// MeasureFleet measures the workload's cost table through sharded fleet
// execution instead of the single-device cooperative path: Host stays the
// coop host-native elapsed (the fallback lane never touches the fleet), while
// the decided strategy and the full-NDP alternative run scatter-gather
// through fx — with whatever fault plan and hedge configuration fx carries
// baked into the memoized service times. This is how chaos reaches the
// serving simulation: a per-device stall inflates the measured device paths,
// and hedging caps that inflation, so the open-loop SLO tables replay the
// fleet's robustness behavior exactly. Every fleet result is
// fingerprint-checked against the host-native execution — faults and hedges
// may degrade latency, never correctness — and a mismatch fails the
// measurement. The table is byte-identical for any worker count; a shared
// retry budget on fx would break that (token order follows wall-clock
// interleaving), so measurement forces workers to 1 when one is set.
func MeasureFleet(ds *job.Dataset, queries []*query.Query, fx *fleet.Executor, workers int) (*CostTable, error) {
	opt := optimizer.New(ds.Cat, ds.Model)
	if fx.Budget != nil {
		workers = 1
	}
	return measure(ds, queries, workers, fx.BatchSize,
		func(_ *coop.Executor, d *optimizer.Decision, s coop.Strategy, host *coop.Report) (vclock.Duration, error) {
			dec := *d
			dec.NDP, dec.Hybrid = s.Kind == coop.NDPOnly, s.Kind == coop.Hybrid
			a, err := fleet.PlanShards(opt, fx.Desc, &dec)
			if err != nil {
				return 0, err
			}
			rep, err := fx.Run(a)
			if err != nil {
				return 0, err
			}
			if fp, want := fleet.Fingerprint(rep.Result), fleet.Fingerprint(host.Result); fp != want {
				return 0, fmt.Errorf("fleet result fingerprint %s != host %s (mode %s)", fp, want, a.Label())
			}
			return rep.Elapsed, nil
		})
}

// runStrategy executes one decided query under a device-bound strategy and
// returns its elapsed virtual time; host is the query's host-native run.
type runStrategy func(ex *coop.Executor, d *optimizer.Decision, s coop.Strategy, host *coop.Report) (vclock.Duration, error)

// measure is the one measurement loop: decide, run host-native on a private
// cooperative executor, then time full NDP (when the plan fits device memory)
// and a decided hybrid split through run, and assemble the table in workload
// order.
func measure(ds *job.Dataset, queries []*query.Query, workers, batchSize int, run runStrategy) (*CostTable, error) {
	opt := optimizer.New(ds.Cat, ds.Model)
	// A private executor: no metrics registry is attached, so parallel
	// measurement cannot interleave writes into the serving registry.
	ex := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	ex.BatchSize = batchSize
	costs := make([]*QueryCost, len(queries))
	errs := make([]error, len(queries))
	par.ForEach(workers, len(queries), func(i int) {
		costs[i], errs[i] = measureOne(opt, ex, ds, queries[i], run)
	})
	ct := &CostTable{byName: make(map[string]*QueryCost, len(queries))}
	var sum vclock.Duration
	for i, q := range queries {
		if errs[i] != nil {
			return nil, fmt.Errorf("serve: measure %s: %w", q.Name, errs[i])
		}
		if _, dup := ct.byName[q.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate workload query name %s", q.Name)
		}
		ct.byName[q.Name] = costs[i]
		ct.names = append(ct.names, q.Name)
		sum += costs[i].Host
	}
	if len(queries) > 0 {
		ct.meanHost = sum / vclock.Duration(len(queries))
	}
	return ct, nil
}

func measureOne(opt *optimizer.Optimizer, ex *coop.Executor, ds *job.Dataset, q *query.Query, run runStrategy) (*QueryCost, error) {
	d, err := opt.Decide(q)
	if err != nil {
		return nil, err
	}
	qc := &QueryCost{Decision: d, Decided: coop.DecisionStrategy(d)}
	hostRep, err := ex.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		return nil, err
	}
	qc.Host = hostRep.Elapsed
	if device.PlanMemory(ds.Model, d.Plan, len(d.Plan.Steps)).Fits() {
		if qc.NDP, err = run(ex, d, coop.Strategy{Kind: coop.NDPOnly}, hostRep); err != nil {
			return nil, err
		}
		qc.NDPFeasible = true
	}
	switch qc.Decided.Kind {
	case coop.HostNative:
		qc.Dec = qc.Host
	case coop.NDPOnly:
		if !qc.NDPFeasible {
			return nil, fmt.Errorf("serve: decision picked NDP for %s but the plan does not fit device memory", q.Name)
		}
		qc.Dec = qc.NDP
	default: // hybrid
		if qc.Dec, err = run(ex, d, qc.Decided, hostRep); err != nil {
			return nil, err
		}
	}
	return qc, nil
}
