package exec_test

import (
	"fmt"
	"math"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/par"
	"hybridndp/internal/vclock"
)

// pieceRun is one execution of the piece-budget law: a JOB query under one
// strategy, its result's fingerprint and its elapsed virtual time.
type pieceRun struct {
	query, strategy string
	fp              string
	elapsed         vclock.Duration
}

// maxIntermediate reports the largest intermediate of p's join chain, run
// materialized on a host engine.
func maxIntermediate(t *testing.T, ds *job.Dataset, p *exec.Plan) int {
	e := &exec.Engine{Cat: ds.Cat, TL: vclock.NewTimeline("host"), R: hw.HostRates(ds.Model)}
	pl, err := e.StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.ScanAccess(pl, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := pl.MakeTuples(rows)
	most := len(tuples)
	for si := range p.Steps {
		if tuples, err = e.JoinStep(pl, si, tuples); err != nil {
			t.Fatal(err)
		}
		most = max(most, len(tuples))
	}
	return most
}

// pieceRuns runs every JOB query host-native, full NDP, at every hybrid split
// and on a 4-device fleet at the current piece budget.
func pieceRuns(t *testing.T, ds *job.Dataset, plans []*exec.Plan, decs []*optimizer.Decision) [][]pieceRun {
	opt := optimizer.New(ds.Cat, ds.Model)
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	desc, err := fleet.Build(ds.Cat, 4, fleet.SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	fx := fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	out := make([][]pieceRun, len(plans))
	errs := make([]error, len(plans))
	par.ForEach(2, len(plans), func(i int) {
		p := plans[i]
		strategies := append([]coop.Strategy{{Kind: coop.HostNative}, {Kind: coop.NDPOnly}}, coop.Splits(p)...)
		if len(p.Steps) == 0 {
			strategies = strategies[:2]
		}
		for _, s := range strategies {
			rep, err := x.Run(p, s)
			if err != nil {
				errs[i] = fmt.Errorf("%s %s: %w", p.Query.Name, s, err)
				return
			}
			out[i] = append(out[i], pieceRun{p.Query.Name, s.String(), fleet.Fingerprint(rep.Result), rep.Elapsed})
		}
		a, err := fleet.PlanShards(opt, desc, decs[i])
		if err == nil {
			var rep *fleet.Report
			if rep, err = fx.Run(a); err == nil {
				out[i] = append(out[i], pieceRun{p.Query.Name, "fleet4", fleet.Fingerprint(rep.Result), rep.Elapsed})
			}
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPieceBudgetLaw is the streamed chain's law on the whole workload: at
// piece budgets of 1 and 7 tuples and at the default, every JOB query under
// every strategy (host-native, full NDP, each hybrid split, a 4-device fleet)
// returns the result of a chain that materializes every intermediate (an
// unbounded budget), and at the default budget the virtual time of every
// query whose intermediates all fit one piece is bit-identical to it. Under
// the race detector only the budget of 7 runs.
func TestPieceBudgetLaw(t *testing.T) {
	ds := jobDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	var plans []*exec.Plan
	var decs []*optimizer.Decision
	fits := map[string]bool{}
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		plans, decs = append(plans, p), append(decs, d)
		fits[q.Name] = maxIntermediate(t, ds, p) < exec.PieceBudget()
	}
	if fits["31c"] {
		t.Fatal("31c's intermediates fit one piece: the law exercises no multi-piece chain")
	}
	restore := exec.SetPieceBudget(math.MaxInt)
	want := pieceRuns(t, ds, plans, decs)
	restore()

	budgets := []int{1, 7, exec.PieceBudget()}
	if raceEnabled() {
		budgets = []int{7}
	}
	for _, budget := range budgets {
		restore := exec.SetPieceBudget(budget)
		got := pieceRuns(t, ds, plans, decs)
		restore()
		for i := range want {
			for j, w := range want[i] {
				g := got[i][j]
				if g.fp != w.fp {
					t.Errorf("budget %d: %s %s result %s, materialized %s", budget, w.query, w.strategy, g.fp, w.fp)
				}
				if budget == exec.PieceBudget() && fits[w.query] &&
					math.Float64bits(float64(g.elapsed)) != math.Float64bits(float64(w.elapsed)) {
					t.Errorf("budget %d: %s %s elapsed %v, materialized %v", budget, w.query, w.strategy, g.elapsed, w.elapsed)
				}
			}
		}
	}
}
