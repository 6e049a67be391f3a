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
// harness regenerates every table and figure of the paper. Concurrent
// serving is internal/sched over the system's parts:
// sched.New(sys.Optimizer, sys.Executor, sys.Model, cfg).
package hybridndp

import (
	"hybridndp/internal/coop"
	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
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

	// JOB is set when the system was opened with OpenJOB.
	JOB *job.Dataset
}

// New creates an empty system (no tables) over fresh simulated flash.
func New(m hw.Model) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fl := flash.New(m, 0)
	db := kv.Open(fl, lsm.DefaultConfig())
	cat := table.NewCatalog(db)
	return &System{
		Model:     m,
		Flash:     fl,
		DB:        db,
		Catalog:   cat,
		Optimizer: optimizer.New(cat, m),
		Executor:  coop.NewExecutor(cat, db, m),
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
// executes that choice. The executor recovers injected device faults itself
// (retry, then the host-only plan); any other error, such as a memory plan
// the device rejects, is returned.
func (s *System) RunAuto(q *query.Query) (*coop.Report, *optimizer.Decision, error) {
	d, err := s.Optimizer.Decide(q)
	if err != nil {
		return nil, nil, err
	}
	rep, err := s.Executor.Run(d.Plan, coop.DecisionStrategy(d))
	if err != nil {
		return nil, nil, err
	}
	return rep, d, nil
}

// Splits enumerates every hybrid split strategy for the query's plan:
// H0 (Split 0) through H(nJoins). Join-free (single-table) queries have
// exactly one split point — H0, where the device scans and filters the base
// table and the host finalizes — so they yield the H0-only strategy set
// rather than an error; the concurrent scheduler classifies every query
// through this enumeration.
func (s *System) Splits(q *query.Query) ([]coop.Strategy, error) {
	p, err := s.Optimizer.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	return coop.Splits(p), nil
}
