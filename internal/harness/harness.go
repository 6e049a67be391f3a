// Package harness regenerates every table and figure of the paper's
// evaluation (§5). Each Fig*/Table* function runs the corresponding
// experiment against a loaded JOB dataset and returns structured results
// plus a formatted text block with the same rows/series the paper reports.
// bench_test.go and cmd/jobbench are thin wrappers over this package.
package harness

import (
	"fmt"
	"io"
	"strings"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/par"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// H bundles a loaded dataset with its optimizer and executor.
type H struct {
	DS   *job.Dataset
	Opt  *optimizer.Optimizer
	Exec *coop.Executor

	// Workers sets the wall-clock parallelism of the sweep experiments and
	// the -plans dump (0 or 1 = sequential). Parallel runs are byte-identical
	// to sequential ones: every query executes on fresh per-run engines,
	// caches and vclock timelines, and results merge in query order.
	Workers int
}

// New loads the JOB dataset at the given scale and assembles the harness.
func New(scale float64, m hw.Model) (*H, error) {
	return NewSeeded(scale, m, job.DefaultSeed)
}

// NewSeeded is New with an explicit dataset generation seed (0 means
// job.DefaultSeed).
func NewSeeded(scale float64, m hw.Model, seed int64) (*H, error) {
	ds, err := job.LoadSeeded(scale, m, seed)
	if err != nil {
		return nil, err
	}
	return FromDataset(ds), nil
}

// FromDataset assembles a harness over an already-loaded dataset.
func FromDataset(ds *job.Dataset) *H {
	return &H{
		DS:   ds,
		Opt:  optimizer.New(ds.Cat, ds.Model),
		Exec: coop.NewExecutor(ds.Cat, ds.DB, ds.Model),
	}
}

// Measurement is one (strategy, time) sample.
type Measurement struct {
	Strategy coop.Strategy
	Elapsed  vclock.Duration
	Err      error
}

// Plans serializes the optimizer's decision for every JOB query: the chosen
// strategy, split point, reason and the full plan tree. Two runs over
// identically seeded datasets must produce byte-identical output — this is
// the determinism surface `cmd/jobbench -plans` exposes for diffing. With
// Workers > 1 the decisions compute in parallel but print in query order, so
// the dump stays byte-identical.
func (h *H) Plans(w io.Writer) error {
	qs := job.Queries()
	type decided struct {
		d   *optimizer.Decision
		err error
	}
	out := make([]decided, len(qs))
	par.ForEach(h.Workers, len(qs), func(i int) {
		out[i].d, out[i].err = h.Opt.Decide(qs[i])
	})
	for i, q := range qs {
		if out[i].err != nil {
			return fmt.Errorf("%s: %w", q.Name, out[i].err)
		}
		d := out[i].d
		fmt.Fprintf(w, "%s %s split=%d reason=%q\n%s\n\n", q.Name, d.StrategyLabel(), d.Split, d.Reason, d.Plan)
	}
	return nil
}

// SweepResult is one query's full strategy sweep.
type SweepResult struct {
	Msr []Measurement
	Err error
}

// SweepParallel runs SweepStrategies for every query across h.Workers
// goroutines and merges the results in query order. Every strategy execution
// uses fresh per-run engines, block caches and timelines, so the merged
// measurements are byte-identical to a sequential sweep regardless of worker
// count or interleaving (TestParallelSweepMatchesSequential enforces this) —
// only wall-clock time changes.
func (h *H) SweepParallel(qs []*query.Query) []SweepResult {
	out := make([]SweepResult, len(qs))
	par.ForEach(h.Workers, len(qs), func(i int) {
		out[i].Msr, _, out[i].Err = h.SweepStrategies(qs[i])
	})
	return out
}

// SweepStrategies runs the query under block, native, every hybrid split and
// full NDP, in that order.
func (h *H) SweepStrategies(q *query.Query) ([]Measurement, *exec.Plan, error) {
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		return nil, nil, err
	}
	strategies := []coop.Strategy{{Kind: coop.BlockOnly}, {Kind: coop.HostNative}}
	if len(p.Steps) > 0 {
		strategies = append(strategies, coop.Splits(p)...)
	}
	strategies = append(strategies, coop.Strategy{Kind: coop.NDPOnly})

	var out []Measurement
	for _, st := range strategies {
		rep, err := h.Exec.Run(p, st)
		m := Measurement{Strategy: st, Err: err}
		if err == nil {
			m.Elapsed = rep.Elapsed
		}
		out = append(out, m)
	}
	return out, p, nil
}

// BestHybrid returns the fastest successful hybrid measurement, if any.
func BestHybrid(ms []Measurement) (Measurement, bool) {
	var best Measurement
	found := false
	for _, m := range ms {
		if m.Err != nil || m.Strategy.Kind != coop.Hybrid {
			continue
		}
		if !found || m.Elapsed < best.Elapsed {
			best, found = m, true
		}
	}
	return best, found
}

// ByKind returns the measurement for a non-hybrid strategy kind.
func ByKind(ms []Measurement, k coop.Kind) (Measurement, bool) {
	for _, m := range ms {
		if m.Strategy.Kind == k && m.Err == nil {
			return m, true
		}
	}
	return Measurement{}, false
}

// Best returns the fastest successful measurement overall.
func Best(ms []Measurement) (Measurement, bool) {
	var best Measurement
	found := false
	for _, m := range ms {
		if m.Err != nil {
			continue
		}
		if !found || m.Elapsed < best.Elapsed {
			best, found = m, true
		}
	}
	return best, found
}

func ms(d vclock.Duration) string { return fmt.Sprintf("%9.2fms", d.Milliseconds()) }

// forceIndexJoins returns a copy of the plan in which every join step with an
// indexed condition — found as the optimizer finds it, JoinStep.Indexed — is
// an index join (BNLI), whether or not the optimizer chose one (Exp 5). Exp
// 4's all-BNL forcing is Plan.WithBufferedJoins.
func forceIndexJoins(cat *table.Catalog, p *exec.Plan) (*exec.Plan, error) {
	p2 := p.Clone()
	for i := range p2.Steps {
		st := &p2.Steps[i]
		if st.Type == exec.BNLI {
			continue
		}
		rt, err := cat.Table(st.Right.Ref.Table)
		if err != nil {
			return nil, err
		}
		*st, _ = st.Indexed(rt)
	}
	return p2, nil
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}
