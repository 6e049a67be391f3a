// Package harness regenerates every table and figure of the paper's
// evaluation (§5). Each Fig*/Table* function runs the corresponding
// experiment against a loaded JOB dataset and returns structured results
// plus a formatted text block with the same rows/series the paper reports.
// bench_test.go and cmd/jobbench are thin wrappers over this package.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/par"
	"hybridndp/internal/query"
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

	// BatchSize sets the columnar batch row capacity of every executor the
	// harness builds (0 = exec.DefaultBatchSize). Virtual-time results are
	// byte-identical at every size (TestBatchedMatchesGoldens); the knob only
	// changes wall-clock speed. Set it through SetBatchSize so the already-
	// constructed cooperative executor picks it up too.
	BatchSize int
}

// SetBatchSize applies a columnar batch row capacity to this harness and its
// executors (0 = exec.DefaultBatchSize).
func (h *H) SetBatchSize(n int) {
	h.BatchSize = n
	h.Exec.BatchSize = n
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

// WithModel returns a harness sharing this one's dataset but planning and
// executing under a modified hardware model — the ablation hook (compute
// ratio, PCIe generation, slot count sweeps).
func (h *H) WithModel(m hw.Model) *H {
	h2 := &H{
		DS:      h.DS,
		Opt:     optimizer.New(h.DS.Cat, m),
		Exec:    coop.NewExecutor(h.DS.Cat, h.DS.DB, m),
		Workers: h.Workers,
	}
	h2.SetBatchSize(h.BatchSize)
	return h2
}

// Run plans a query and executes it under the strategy.
func (h *H) Run(q *query.Query, s coop.Strategy) (*coop.Report, error) {
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	return h.Exec.Run(p, s)
}

// Measurement is one (strategy, time) sample.
type Measurement struct {
	Strategy coop.Strategy
	Elapsed  vclock.Duration
	Rows     int64
	Batches  int
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
	Msr  []Measurement
	Plan *exec.Plan
	Err  error
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
		out[i].Msr, out[i].Plan, out[i].Err = h.SweepStrategies(qs[i])
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
		strategies = append(strategies, coop.Strategy{Kind: coop.Hybrid, Split: -1})
		for k := 1; k <= len(p.Steps); k++ {
			strategies = append(strategies, coop.Strategy{Kind: coop.Hybrid, Split: k})
		}
	}
	strategies = append(strategies, coop.Strategy{Kind: coop.NDPOnly})

	var out []Measurement
	for _, st := range strategies {
		rep, err := h.Exec.Run(p, st)
		m := Measurement{Strategy: st, Err: err}
		if err == nil {
			m.Elapsed = rep.Elapsed
			m.Rows = rep.Result.RowCount
			m.Batches = rep.Batches
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

// forceJoinTypes returns a copy of the plan with every join step's algorithm
// overridden (Exp 4/5 force BNL vs BNLI).
func forceJoinTypes(p *exec.Plan, jt exec.JoinType) *exec.Plan {
	p2 := p.Clone() // forceIndexed reorders a step's conditions
	for i := range p2.Steps {
		st := &p2.Steps[i]
		if jt == exec.BNLI {
			if ok := forceIndexed(st); !ok {
				st.Type = exec.BNL
			}
		} else {
			st.Type = jt
		}
	}
	return p2
}

// forceIndexed rewires a step to BNLI if any join condition has an index.
func forceIndexed(st *exec.JoinStep) bool {
	if st.Type == exec.BNLI {
		return true
	}
	// The optimizer stores the right access path; conds carry the columns.
	// The executor resolves PK joins directly; secondary joins need the
	// index name, which follows the idx_<col> convention of the JOB schema.
	for i, c := range st.Conds {
		if c.RightCol == "id" { // JOB primary keys are all "id"
			st.Type = exec.BNLI
			st.RightIndexIsPK = true
			st.Conds[0], st.Conds[i] = st.Conds[i], st.Conds[0]
			return true
		}
	}
	for i, c := range st.Conds {
		switch c.RightCol {
		case "movie_id", "person_id", "keyword_id", "company_id", "role_id",
			"kind_id", "info_type_id", "company_type_id", "link_type_id",
			"linked_movie_id", "person_role_id", "subject_id", "status_id",
			"production_year", "country_code", "gender", "keyword":
			st.Type = exec.BNLI
			st.RightIndexIsPK = false
			st.RightIndex = "idx_" + c.RightCol
			st.Conds[0], st.Conds[i] = st.Conds[i], st.Conds[0]
			return true
		}
	}
	return false
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
