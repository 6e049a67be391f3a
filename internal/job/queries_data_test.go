package job_test

import (
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/table"
)

var (
	dsOnce sync.Once
	ds     *job.Dataset
	dsErr  error
)

func env(t *testing.T) (*optimizer.Optimizer, *coop.Executor) {
	t.Helper()
	dsOnce.Do(func() { ds, dsErr = job.Load(0.02, hw.Cosmos()) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return optimizer.New(ds.Cat, ds.Model), coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
}

// TestMarqueeQueriesMatchData verifies the generator's value domains align
// with the query predicates: the paper's featured queries must find rows
// (a MIN() aggregate over zero tuples returns NULL).
func TestMarqueeQueriesMatchData(t *testing.T) {
	opt, ex := env(t)
	for _, name := range []string{"1a", "2d", "3a", "6f", "8c", "8d", "10c",
		"13d", "14c", "16b", "17a", "17b", "19d", "26c", "32b"} {
		q := job.QueryByName(name)
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := ex.Run(p, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Result.RowCount != 1 {
			t.Fatalf("%s: %d result rows", name, rep.Result.RowCount)
		}
		if rep.Result.Rows[0][0].Null {
			t.Errorf("%s: empty result — predicates do not match the generated data", name)
		}
	}
}

// TestQueryCoverageAcrossJoinCounts ensures the workload exercises the full
// breadth the paper relies on: from 4-5 table queries to the 16-table Q29.
func TestQueryCoverageAcrossJoinCounts(t *testing.T) {
	opt, _ := env(t)
	sizes := map[int]bool{}
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		sizes[p.NumTables()] = true
	}
	for _, want := range []int{4, 5, 7, 8, 10, 16} {
		if !sizes[want] {
			t.Errorf("no query with %d tables", want)
		}
	}
}

// TestExtensionGroupByAcrossStrategies runs the GROUP BY extension queries
// under every strategy: group counts and per-group values must agree whether
// grouping happens on the host or in-situ on the device.
func TestExtensionGroupByAcrossStrategies(t *testing.T) {
	opt, ex := env(t)
	for _, q := range job.ExtensionQueries() {
		if err := q.Validate(ds.Cat); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		host, err := ex.Run(p, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			t.Fatalf("%s host: %v", q.Name, err)
		}
		if host.Result.RowCount < 2 {
			t.Fatalf("%s: only %d groups — degenerate grouping", q.Name, host.Result.RowCount)
		}
		hostGroups := groupMap(host)
		strategies := append([]coop.Strategy{{Kind: coop.NDPOnly}}, coop.Splits(p)...)
		for _, st := range strategies {
			rep, err := ex.Run(p, st)
			if err != nil {
				t.Fatalf("%s %v: %v", q.Name, st, err)
			}
			got := groupMap(rep)
			if len(got) != len(hostGroups) {
				t.Fatalf("%s %v: %d groups, host has %d", q.Name, st, len(got), len(hostGroups))
			}
			for g, v := range hostGroups {
				if got[g] != v {
					t.Fatalf("%s %v: group %q = %q, host says %q", q.Name, st, g, got[g], v)
				}
			}
		}
	}
}

func groupMap(rep *coop.Report) map[string]string {
	out := map[string]string{}
	for _, row := range rep.Result.Rows {
		out[row[0].String()] = row[1].String()
	}
	return out
}

// TestSelectivitySpread checks the generator produces both highly selective
// dimension filters and broad fact filters, the tension split decisions
// depend on.
func TestSelectivitySpread(t *testing.T) {
	_, _ = env(t)
	kw, err := ds.Cat.Table("keyword")
	if err != nil {
		t.Fatal(err)
	}
	st := kw.CollectStats()
	// A named hot keyword is rare among all keywords.
	if s := st.EqSelectivity("keyword"); s > 0.05 {
		t.Fatalf("keyword equality selectivity %.4f too high", s)
	}
	ci, _ := ds.Cat.Table("cast_info")
	cst := ci.CollectStats()
	actorSel := cst.SelectivityOf(func(r table.Record) bool {
		v := r.GetByName("role_id")
		return !v.Null && (v.Int == 1 || v.Int == 2)
	})
	if actorSel < 0.3 {
		t.Fatalf("actor/actress share %.2f — fact filters should be broad", actorSel)
	}
}
