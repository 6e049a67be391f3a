package serve

import (
	"fmt"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
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
	meanHost vclock.Duration
}

// Cost returns one query's measured costs.
func (ct *CostTable) Cost(name string) (*QueryCost, bool) {
	qc, ok := ct.byName[name]
	return qc, ok
}

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
	return measure(ds, queries, workers, false,
		func(ex *coop.Executor, d *optimizer.Decision, s coop.Strategy) (vclock.Duration, *exec.Result, error) {
			rep, err := ex.Run(d.Plan, s)
			if err != nil {
				return 0, nil, err
			}
			return rep.Elapsed, rep.Result, nil
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
// fleet's robustness behavior exactly. Once every run is done, each fleet
// result is fingerprint-checked against the query's host-native execution —
// faults and hedges may degrade latency, never correctness — and a mismatch
// fails the measurement. The table is byte-identical for any worker count.
func MeasureFleet(ds *job.Dataset, queries []*query.Query, fx *fleet.Executor, workers int) (*CostTable, error) {
	opt := optimizer.New(ds.Cat, ds.Model)
	return measure(ds, queries, workers, true,
		func(_ *coop.Executor, d *optimizer.Decision, s coop.Strategy) (vclock.Duration, *exec.Result, error) {
			dec := *d
			dec.NDP, dec.Hybrid = s.Kind == coop.NDPOnly, s.Kind == coop.Hybrid
			a, err := fleet.PlanShards(opt, fx.Desc, &dec)
			if err != nil {
				return 0, nil, err
			}
			rep, err := fx.Run(a)
			if err != nil {
				return 0, nil, err
			}
			return rep.Elapsed, rep.Result, nil
		})
}

// runStrategy executes one decided query under a device-bound strategy and
// returns its elapsed virtual time and its result.
type runStrategy func(ex *coop.Executor, d *optimizer.Decision, s coop.Strategy) (vclock.Duration, *exec.Result, error)

// measureRun is one (query, strategy) execution of a measurement: the slot
// its elapsed lands in and, when results are checked, its result's
// fingerprint.
type measureRun struct {
	q   int
	s   coop.Strategy
	dst *vclock.Duration
	fp  string
	err error
}

// measure is the one measurement loop: decide every query, then run each
// (query, strategy) pair as a work item of its own — host-native on a private
// cooperative executor, full NDP (when the plan fits device memory) and a
// decided hybrid split through run — in workload order, into pre-sized
// slots, so a heavy query's runs proceed side by side. With check set, every
// device run's result must fingerprint-match its query's host-native result.
func measure(ds *job.Dataset, queries []*query.Query, workers int, check bool, run runStrategy) (*CostTable, error) {
	opt := optimizer.New(ds.Cat, ds.Model)
	// A private executor: no metrics registry is attached, so parallel
	// measurement cannot interleave writes into the serving registry.
	ex := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	costs := make([]QueryCost, len(queries))
	errs := make([]error, len(queries))
	par.ForEach(workers, len(queries), func(i int) {
		errs[i] = decide(opt, queries[i], &costs[i])
	})
	var runs []measureRun
	for i, q := range queries {
		if errs[i] != nil {
			return nil, fmt.Errorf("serve: measure %s: %w", q.Name, errs[i])
		}
		qc := &costs[i]
		runs = append(runs, measureRun{q: i, s: coop.Strategy{Kind: coop.HostNative}, dst: &qc.Host})
		if qc.NDPFeasible {
			runs = append(runs, measureRun{q: i, s: coop.Strategy{Kind: coop.NDPOnly}, dst: &qc.NDP})
		}
		if k := qc.Decided.Kind; k != coop.HostNative && k != coop.NDPOnly {
			runs = append(runs, measureRun{q: i, s: qc.Decided, dst: &qc.Dec})
		}
	}
	par.ForEach(workers, len(runs), func(k int) {
		r := &runs[k]
		d := costs[r.q].Decision
		var res *exec.Result
		if r.s.Kind == coop.HostNative {
			var rep *coop.Report
			if rep, r.err = ex.Run(d.Plan, r.s); r.err == nil {
				*r.dst, res = rep.Elapsed, rep.Result
			}
		} else {
			*r.dst, res, r.err = run(ex, d, r.s)
		}
		if check && r.err == nil {
			r.fp = fleet.Fingerprint(res)
		}
	})
	host := 0 // the index of the current query's host-native run
	for k := range runs {
		r := &runs[k]
		name := queries[r.q].Name
		if r.err != nil {
			return nil, fmt.Errorf("serve: measure %s: %w", name, r.err)
		}
		if r.s.Kind == coop.HostNative {
			host = k
		} else if want := runs[host].fp; r.fp != want {
			return nil, fmt.Errorf("serve: measure %s: fleet result fingerprint %s != host %s (%s)", name, r.fp, want, r.s)
		}
	}
	ct := &CostTable{byName: make(map[string]*QueryCost, len(queries))}
	var sum vclock.Duration
	for i, q := range queries {
		qc := &costs[i]
		switch qc.Decided.Kind {
		case coop.HostNative:
			qc.Dec = qc.Host
		case coop.NDPOnly:
			qc.Dec = qc.NDP
		}
		if _, dup := ct.byName[q.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate workload query name %s", q.Name)
		}
		ct.byName[q.Name] = qc
		sum += qc.Host
	}
	if len(queries) > 0 {
		ct.meanHost = sum / vclock.Duration(len(queries))
	}
	return ct, nil
}

// decide fills in a query's decision and whether its whole plan fits device
// memory (the decision's memory plan of every join on the device).
func decide(opt *optimizer.Optimizer, q *query.Query, qc *QueryCost) error {
	d, err := opt.Decide(q)
	if err != nil {
		return err
	}
	qc.Decision, qc.Decided = d, coop.DecisionStrategy(d)
	qc.NDPFeasible = d.Mem[len(d.Plan.Steps)].Fits()
	if qc.Decided.Kind == coop.NDPOnly && !qc.NDPFeasible {
		return fmt.Errorf("serve: decision picked NDP for %s but the plan does not fit device memory", q.Name)
	}
	return nil
}
