package query_test

import (
	"testing"

	"hybridndp/internal/expr"
	"hybridndp/internal/job"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// identityBase builds a query that uses every field and every predicate node
// the fingerprint covers. Each call returns fresh objects.
func identityBase() *query.Query {
	return &query.Query{
		Name: "base",
		Tables: []query.TableRef{
			{Alias: "t", Table: "title"}, {Alias: "mi", Table: "movie_info"}, {Alias: "k", Table: "keyword"},
		},
		Filters: map[string]expr.Pred{
			"t": expr.And{Preds: []expr.Pred{
				expr.Cmp{Col: "production_year", Op: expr.Gt, Val: table.IntVal(1990)},
				expr.Or{Preds: []expr.Pred{
					expr.Like{Col: "title", Pattern: "%Champion%"},
					expr.Between{Col: "kind_id", Lo: 1, Hi: 3},
				}},
				expr.Not{Pred: expr.IsNull{Col: "episode_nr"}},
			}},
			"mi": expr.In{Col: "info", Vals: []table.Value{table.StrVal("Germany"), table.StrVal("USA")}},
		},
		Joins: []query.JoinCond{
			{LeftAlias: "t", LeftCol: "id", RightAlias: "mi", RightCol: "movie_id"},
			{LeftAlias: "k", LeftCol: "id", RightAlias: "mi", RightCol: "info_type_id"},
		},
		Output: []query.ColRef{{Alias: "t", Col: "title"}},
		Aggregates: []query.Aggregate{
			{Func: query.Min, Arg: query.ColRef{Alias: "t", Col: "title"}, As: "m"},
			{Func: query.Count, Star: true, As: "n"},
		},
		GroupBy: []query.ColRef{{Alias: "k", Col: "keyword"}},
	}
}

// foreignPred is a Pred implementation from outside expr.
type foreignPred struct{ expr.IsNull }

// TestFingerprintLaws: any single structural change breaks Equal (and, for
// these fixed cases, moves the fingerprint), and Equal implies an equal
// fingerprint.
func TestFingerprintLaws(t *testing.T) {
	tAnd := func(q *query.Query) []expr.Pred { return q.Filters["t"].(expr.And).Preds }
	mutations := []struct {
		name string
		edit func(q *query.Query)
	}{
		{"name", func(q *query.Query) { q.Name = "other" }},
		{"table order", func(q *query.Query) { q.Tables[0], q.Tables[1] = q.Tables[1], q.Tables[0] }},
		{"table alias", func(q *query.Query) { q.Tables[2].Alias = "kw" }},
		{"table name", func(q *query.Query) { q.Tables[2].Table = "kind_type" }},
		{"table dropped", func(q *query.Query) { q.Tables = q.Tables[:2] }},
		{"cmp constant", func(q *query.Query) {
			tAnd(q)[0] = expr.Cmp{Col: "production_year", Op: expr.Gt, Val: table.IntVal(1991)}
		}},
		{"cmp operator", func(q *query.Query) {
			tAnd(q)[0] = expr.Cmp{Col: "production_year", Op: expr.Ge, Val: table.IntVal(1990)}
		}},
		{"cmp column", func(q *query.Query) {
			tAnd(q)[0] = expr.Cmp{Col: "season_nr", Op: expr.Gt, Val: table.IntVal(1990)}
		}},
		{"cmp constant type", func(q *query.Query) {
			tAnd(q)[0] = expr.Cmp{Col: "production_year", Op: expr.Gt, Val: table.StrVal("1990")}
		}},
		{"cmp null constant", func(q *query.Query) {
			tAnd(q)[0] = expr.Cmp{Col: "production_year", Op: expr.Gt, Val: table.NullVal()}
		}},
		{"like pattern", func(q *query.Query) {
			tAnd(q)[1].(expr.Or).Preds[0] = expr.Like{Col: "title", Pattern: "%Champion"}
		}},
		{"like negated", func(q *query.Query) {
			tAnd(q)[1].(expr.Or).Preds[0] = expr.Like{Col: "title", Pattern: "%Champion%", Not: true}
		}},
		{"between bound", func(q *query.Query) {
			tAnd(q)[1].(expr.Or).Preds[1] = expr.Between{Col: "kind_id", Lo: 1, Hi: 4}
		}},
		{"or operands swapped", func(q *query.Query) {
			or := tAnd(q)[1].(expr.Or).Preds
			or[0], or[1] = or[1], or[0]
		}},
		{"or becomes and", func(q *query.Query) { tAnd(q)[1] = expr.And{Preds: tAnd(q)[1].(expr.Or).Preds} }},
		{"not removed", func(q *query.Query) { tAnd(q)[2] = expr.IsNull{Col: "episode_nr"} }},
		{"is null negated", func(q *query.Query) { tAnd(q)[2] = expr.Not{Pred: expr.IsNull{Col: "episode_nr", Not: true}} }},
		// Prints exactly like the base (And.String joins with " AND ") and is
		// a different tree: what the parser builds for two conjuncts on one alias.
		{"and re-nested", func(q *query.Query) {
			a := tAnd(q)
			q.Filters["t"] = expr.And{Preds: []expr.Pred{a[0], expr.And{Preds: []expr.Pred{a[1], a[2]}}}}
		}},
		{"in constant", func(q *query.Query) {
			q.Filters["mi"] = expr.In{Col: "info", Vals: []table.Value{table.StrVal("Germany"), table.StrVal("UK")}}
		}},
		{"in list longer", func(q *query.Query) {
			q.Filters["mi"] = expr.In{Col: "info", Vals: []table.Value{table.StrVal("Germany"), table.StrVal("USA"), table.StrVal("UK")}}
		}},
		{"filter moved to another alias", func(q *query.Query) {
			q.Filters["k"] = q.Filters["mi"]
			delete(q.Filters, "mi")
		}},
		{"filter dropped", func(q *query.Query) { delete(q.Filters, "mi") }},
		{"filter on an alias missing from FROM", func(q *query.Query) { q.Filters["ghost"] = expr.IsNull{Col: "id"} }},
		{"join side swapped", func(q *query.Query) {
			j := &q.Joins[0]
			j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol = j.RightAlias, j.RightCol, j.LeftAlias, j.LeftCol
		}},
		{"join column", func(q *query.Query) { q.Joins[1].RightCol = "id" }},
		{"join order", func(q *query.Query) { q.Joins[0], q.Joins[1] = q.Joins[1], q.Joins[0] }},
		{"output column", func(q *query.Query) { q.Output[0].Col = "id" }},
		{"output dropped", func(q *query.Query) { q.Output = nil }},
		{"aggregate function", func(q *query.Query) { q.Aggregates[0].Func = query.Max }},
		{"aggregate argument", func(q *query.Query) { q.Aggregates[0].Arg.Col = "id" }},
		{"aggregate alias", func(q *query.Query) { q.Aggregates[0].As = "lowest" }},
		{"aggregate star", func(q *query.Query) { q.Aggregates[1].Star = false }},
		{"group by column", func(q *query.Query) { q.GroupBy[0].Col = "id" }},
		{"group by alias", func(q *query.Query) { q.GroupBy[0].Alias = "t" }},
	}
	base := identityBase()
	baseFP, ok := base.Fingerprint()
	if !ok {
		t.Fatal("base query has no fingerprint")
	}
	if twin := identityBase(); !base.Equal(twin) || !twin.Equal(base) {
		t.Fatal("two builds of the base query are not Equal")
	} else if fp, _ := twin.Fingerprint(); fp != baseFP {
		t.Fatalf("Equal queries fingerprint differently: %x vs %x", fp, baseFP)
	}
	for _, m := range mutations {
		q := identityBase()
		m.edit(q)
		if q.Equal(base) || base.Equal(q) {
			t.Errorf("%s: still Equal to the base", m.name)
		}
		if fp, ok := q.Fingerprint(); !ok || fp == baseFP {
			t.Errorf("%s: fingerprint %x (ok=%v) did not move from the base's %x", m.name, fp, ok, baseFP)
		}
	}

	// A predicate type expr does not know has no structural identity: no
	// fingerprint, and equal to nothing — not even to itself.
	q := identityBase()
	q.Filters["k"] = foreignPred{expr.IsNull{Col: "keyword"}}
	if _, ok := q.Fingerprint(); ok {
		t.Error("a query holding a foreign Pred must not fingerprint")
	}
	if q.Equal(q) {
		t.Error("a query holding a foreign Pred must not be Equal to anything")
	}
}

// TestFingerprintsOfTheWorkload: every workload query equals its rebuilt twin
// with the same fingerprint, and no two of them share either.
func TestFingerprintsOfTheWorkload(t *testing.T) {
	build := func() []*query.Query { return append(job.Queries(), job.ExtensionQueries()...) }
	qs, twins := build(), build()
	seen := map[uint64]string{}
	for i, q := range qs {
		fp, ok := q.Fingerprint()
		if !ok {
			t.Fatalf("%s: no fingerprint", q.Name)
		}
		tfp, _ := twins[i].Fingerprint()
		if !q.Equal(twins[i]) || fp != tfp {
			t.Errorf("%s: rebuilt twin is not Equal (or fingerprints %x vs %x)", q.Name, fp, tfp)
		}
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %x", q.Name, other, fp)
		}
		seen[fp] = q.Name
		for _, o := range qs[:i] {
			if q.Equal(o) {
				t.Errorf("%s is Equal to %s", q.Name, o.Name)
			}
		}
	}
	// The name is identity too: the same shape under another name is another query.
	renamed := job.QueryByName("8c")
	renamed.Name = "adhoc"
	if renamed.Equal(job.QueryByName("8c")) {
		t.Error("a renamed query is still Equal to the original")
	}
}

// BenchmarkFingerprint times what a plan-memo lookup pays per query before it
// touches the memo: hashing a query and confirming it against its equal.
func BenchmarkFingerprint(b *testing.B) {
	qs, twins := job.Queries(), job.Queries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, q := range qs {
			if _, ok := q.Fingerprint(); !ok || !q.Equal(twins[j]) {
				b.Fatal(q.Name)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
