// Package hybridndp is the public façade of the hybridNDP reproduction
// (Knödler et al., EDBT 2025): dynamic operation offloading and cooperative
// query execution in smart-storage settings.
//
// A System bundles the full stack — simulated flash, the nKV column-family
// LSM store, the relational catalog, the cost-model-driven optimizer and the
// cooperative executor with its device simulator. Typical use:
//
//	sys, _ := hybridndp.OpenJOB(0.05, hw.Cosmos())
//	q := job.QueryByName("8c")
//	report, decision, _ := sys.RunAuto(q)
//	fmt.Println(decision.StrategyLabel(), report.Elapsed)
//
// Forced strategies (host-only over the BLK or native stack, full NDP, or
// any hybrid split Hk) run through System.Run, which is how the benchmark
// harness regenerates every table and figure of the paper.
package hybridndp

import (
	"context"
	"sync"

	"hybridndp/internal/coop"
	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/sql"
	"hybridndp/internal/table"
)

// System is one assembled hybridNDP instance.
type System struct {
	Model     hw.Model
	Flash     *flash.Flash
	DB        *kv.DB
	Catalog   *table.Catalog
	Optimizer *optimizer.Optimizer
	Executor  *coop.Executor
	// Feedback is the estimate-feedback store RunAuto reads and writes: per
	// query and per pool the measured/estimated ratios it has learned, and the
	// log of automated runs behind them (Feedback.Runs, Feedback.Quality).
	Feedback *sched.Feedback

	// JOB is set when the system was opened with OpenJOB.
	JOB *job.Dataset

	servingMu sync.Mutex
	serving   *sched.Scheduler // guarded by servingMu
}

// New creates an empty system (no tables) over fresh simulated flash.
func New(m hw.Model) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fl := flash.New(m, 0)
	db := kv.Open(fl, m, lsm.DefaultConfig())
	cat := table.NewCatalog(db)
	return &System{
		Model:     m,
		Flash:     fl,
		DB:        db,
		Catalog:   cat,
		Optimizer: optimizer.New(cat, m),
		Executor:  coop.NewExecutor(cat, db, m),
		Feedback:  sched.NewFeedback(),
	}, nil
}

// OpenJOB loads the Join-Order Benchmark dataset at the given scale (1.0 ≈
// 3.9 M rows; the paper's volume corresponds to ≈19) and assembles the
// system around it.
func OpenJOB(scale float64, m hw.Model) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ds, err := job.Load(scale, m)
	if err != nil {
		return nil, err
	}
	return &System{
		Model:     ds.Model, // job.Load scales the device memory reservations
		Flash:     ds.Flash,
		DB:        ds.DB,
		Catalog:   ds.Cat,
		Optimizer: optimizer.New(ds.Cat, ds.Model),
		Executor:  coop.NewExecutor(ds.Cat, ds.DB, ds.Model),
		Feedback:  sched.NewFeedback(),
		JOB:       ds,
	}, nil
}

// Query parses a SQL string (the JOB dialect: SELECT-PROJECT-JOIN-AGGREGATE
// with a conjunctive WHERE) and validates it against the catalog.
func (s *System) Query(sqlText string) (*query.Query, error) {
	q, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(s.Catalog); err != nil {
		return nil, err
	}
	return q, nil
}

// Decide plans the query and returns the optimizer's strategy decision,
// including the full cost picture (host/NDP totals, per-split cumulative
// costs, c_target). The decision's Plan is shared with every other caller of
// an equal query and read-only; edit a Plan.Clone.
func (s *System) Decide(q *query.Query) (*optimizer.Decision, error) {
	return s.Optimizer.Decide(q)
}

// DecisionStrategy converts an optimizer decision into an executable
// strategy.
func DecisionStrategy(d *optimizer.Decision) coop.Strategy { return coop.DecisionStrategy(d) }

// Run executes the query under a forced strategy.
func (s *System) Run(q *query.Query, strat coop.Strategy) (*coop.Report, error) {
	p, err := s.Optimizer.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	return s.Executor.Run(p, strat)
}

// RunAuto lets the optimizer decide (the hybridNDP mode of the paper) and
// executes that choice. The run is quoted first — the cost model's estimate
// corrected by what System.Feedback has learned about the query — and folded
// into the store afterwards, so Feedback.Quality tracks how far the quotes
// are off. A device-side failure (e.g. a memory plan rejected at execution
// time) falls back to the traditional host-only strategy, as the paper's
// preconditions mandate.
func (s *System) RunAuto(q *query.Query) (*coop.Report, *optimizer.Decision, error) {
	d, err := s.Optimizer.Decide(q)
	if err != nil {
		return nil, nil, err
	}
	st := coop.DecisionStrategy(d)
	rep, err := s.Executor.Run(d.Plan, st)
	if err != nil && st.Kind != coop.HostNative {
		st = coop.Strategy{Kind: coop.HostNative}
		rep, err = s.Executor.Run(d.Plan, st)
	}
	if err != nil {
		return nil, nil, err
	}
	s.Feedback.Observe(d, st, s.Feedback.Price(d, st), rep)
	return rep, d, nil
}

// Splits enumerates every hybrid split strategy for the query's plan:
// H0 (Split=-1) through H(nJoins). Join-free (single-table) queries have
// exactly one split point — H0, where the device scans and filters the base
// table and the host finalizes — so they yield the H0-only strategy set
// rather than an error; the concurrent scheduler classifies every query
// through this enumeration.
func (s *System) Splits(q *query.Query) ([]coop.Strategy, error) {
	p, err := s.Optimizer.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	out := []coop.Strategy{{Kind: coop.Hybrid, Split: -1}}
	for k := 1; k <= len(p.Steps); k++ {
		out = append(out, coop.Strategy{Kind: coop.Hybrid, Split: k})
	}
	return out, nil
}

// Serve starts (or replaces) the system's query scheduler: a bounded
// admission queue in front of the virtual-time placement loop, which re-checks
// every decision against the load on the host lanes and the device fleet and
// degrades saturated queries toward the host (see internal/sched). The
// scheduler runs on its callers' goroutines: Submit enqueues, and Ticket.Wait,
// Scheduler.Drain and StopServing dispatch. An existing scheduler is drained
// first. The zero Config serves with sched.DefaultConfig.
func (s *System) Serve(cfg sched.Config) *sched.Scheduler {
	if cfg == (sched.Config{}) {
		cfg = sched.DefaultConfig()
	}
	sc := sched.New(s.Optimizer, s.Executor, s.Model, cfg)
	s.servingMu.Lock()
	old := s.serving
	s.serving = sc
	s.servingMu.Unlock()
	if old != nil {
		old.Close()
	}
	return sc
}

// Submit enqueues a query on the serving scheduler (starting one with the
// default configuration if Serve was never called); under backpressure — the
// admission queue is full — it dispatches queued queries until a slot frees.
func (s *System) Submit(ctx context.Context, q *query.Query, prio sched.Priority) (*sched.Ticket, error) {
	s.servingMu.Lock()
	if s.serving == nil {
		s.serving = sched.New(s.Optimizer, s.Executor, s.Model, sched.DefaultConfig())
	}
	sc := s.serving
	s.servingMu.Unlock()
	return sc.Submit(ctx, q, prio)
}

// StopServing drains the serving scheduler (all queued queries still run) and
// returns its final stats. A system that never served returns zero stats.
func (s *System) StopServing() sched.Stats {
	s.servingMu.Lock()
	sc := s.serving
	s.serving = nil
	s.servingMu.Unlock()
	if sc == nil {
		return sched.Stats{}
	}
	sc.Close()
	return sc.Stats()
}
