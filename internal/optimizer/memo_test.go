package optimizer_test

import (
	"reflect"
	"testing"

	"hybridndp/internal/exec"
	"hybridndp/internal/expr"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/sql"
	"hybridndp/internal/table"
)

// workloadSQL renders the 113 JOB queries plus the extension queries to the
// text a client would send.
func workloadSQL(tb testing.TB) []string {
	tb.Helper()
	var texts []string
	for _, q := range append(job.Queries(), job.ExtensionQueries()...) {
		text, err := sql.Render(q)
		if err != nil {
			tb.Fatalf("%s: %v", q.Name, err)
		}
		texts = append(texts, text)
	}
	return texts
}

func mustParse(tb testing.TB, text string) *query.Query {
	tb.Helper()
	q, err := sql.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// sameDecision compares everything a Decision says; plans by rendering and by
// value (DeepEqual follows Plan.Query, so equal queries behind different
// pointers compare equal).
func sameDecision(t *testing.T, what string, got, want *optimizer.Decision) {
	t.Helper()
	if got.Plan.String() != want.Plan.String() || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Fatalf("%s: plan differs from a fresh optimizer's\n got: %s\nwant: %s", what, got.Plan, want.Plan)
	}
	if got.Hybrid != want.Hybrid || got.NDP != want.NDP || got.Split != want.Split || got.Reason != want.Reason {
		t.Fatalf("%s: decision %s/%d %q, a fresh optimizer says %s/%d %q", what,
			got.StrategyLabel(), got.Split, got.Reason, want.StrategyLabel(), want.Split, want.Reason)
	}
	if !reflect.DeepEqual(got.Costs, want.Costs) {
		t.Fatalf("%s: split costs differ from a fresh optimizer's\n got: %s\nwant: %s", what, got.Costs, want.Costs)
	}
}

// TestMemoizedPlansMatchFresh: planning a statement again returns the plan
// object of the first time, and everything decided from it equals what an
// optimizer that has never seen the statement decides.
func TestMemoizedPlansMatchFresh(t *testing.T) {
	ds, opt := testOpt(t)
	for _, text := range workloadSQL(t) {
		first, err := opt.BuildPlan(mustParse(t, text))
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		again, err := opt.BuildPlan(mustParse(t, text))
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("second BuildPlan built a new plan for %s", text)
		}
		got, err := opt.Decide(mustParse(t, text))
		if err != nil {
			t.Fatal(err)
		}
		if got.Plan != first {
			t.Fatalf("Decide did not reuse the memoized plan for %s", text)
		}
		want, err := optimizer.New(ds.Cat, ds.Model).Decide(mustParse(t, text))
		if err != nil {
			t.Fatal(err)
		}
		sameDecision(t, text, got, want)
	}
}

// TestMemoKeepsNamesApart: fault draws and trace roots are keyed on the query
// name, so one shape under two names is two plans, each carrying its own.
func TestMemoKeepsNamesApart(t *testing.T) {
	_, opt := testOpt(t)
	a, b := job.QueryByName("8c"), job.QueryByName("8c")
	b.Name = "adhoc"
	pa, err := opt.BuildPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := opt.BuildPlan(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb || pa.Query.Name != "8c" || pb.Query.Name != "adhoc" {
		t.Fatalf("plans %p (%s) and %p (%s) must differ and keep their names", pa, pa.Query.Name, pb, pb.Query.Name)
	}
	if pa.String() == pb.String() {
		t.Fatal("the rendering carries the name and must differ")
	}
}

// TestMemoFollowsStatistics: a load drops the table's statistics; plans
// over that table are rebuilt against the new ones (and equal a fresh
// optimizer's), plans over untouched tables stay hits.
func TestMemoFollowsStatistics(t *testing.T) {
	// A dataset of its own: the load must not reach the other tests.
	ds, err := job.Load(0.004, hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(ds.Cat, ds.Model)
	touched, untouched := job.QueryByName("3a"), job.QueryByName("32b") // 3a reads movie_info, 32b does not
	refs := func(q *query.Query, table string) bool {
		for _, r := range q.Tables {
			if r.Table == table {
				return true
			}
		}
		return false
	}
	if !refs(touched, "movie_info") || refs(untouched, "movie_info") {
		t.Fatal("test queries no longer split on movie_info")
	}
	pt, err := opt.BuildPlan(touched)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := opt.BuildPlan(untouched)
	if err != nil {
		t.Fatal(err)
	}

	mi, err := ds.Cat.Table("movie_info")
	if err != nil {
		t.Fatal(err)
	}
	before := mi.CollectStats()
	row := make([]table.Value, len(mi.Schema.Columns))
	for i, c := range mi.Schema.Columns {
		switch {
		case c.Name == mi.Schema.PrimaryKey:
			row[i] = table.IntVal(1 << 30)
		case c.Type == table.Int32:
			row[i] = table.IntVal(1)
		default:
			row[i] = table.StrVal("x")
		}
	}
	slab, err := mi.Schema.AppendRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	if err := mi.BulkLoad(slab); err != nil {
		t.Fatal(err)
	}
	if mi.CollectStats() == before {
		t.Fatal("a load did not renew the table's statistics")
	}

	pt2, err := opt.Decide(job.QueryByName("3a"))
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Plan == pt {
		t.Fatal("plan over a table with new statistics was served from the memo")
	}
	want, err := optimizer.New(ds.Cat, ds.Model).Decide(job.QueryByName("3a"))
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, "3a after the load", pt2, want)
	if again, _ := opt.BuildPlan(job.QueryByName("3a")); again != pt2.Plan {
		t.Fatal("the rebuilt plan was not memoized")
	}
	if again, _ := opt.BuildPlan(job.QueryByName("32b")); again != pu {
		t.Fatal("a plan over untouched tables was rebuilt")
	}
}

// opaquePred is a Pred implementation the fingerprint cannot see into.
type opaquePred struct{ expr.Pred }

// TestMemoSkipsForeignPredicates: a query holding a predicate type from
// outside expr has no structural identity and is planned fresh every time.
func TestMemoSkipsForeignPredicates(t *testing.T) {
	_, opt := testOpt(t)
	build := func() *query.Query {
		q := job.QueryByName("1a")
		for alias, p := range q.Filters {
			q.Filters[alias] = opaquePred{p}
			break
		}
		return q
	}
	first, err := opt.BuildPlan(build())
	if err != nil {
		t.Fatal(err)
	}
	q := build()
	again, err := opt.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if again == first || again.Query != q {
		t.Fatal("a query with a foreign predicate was served from the memo")
	}
	if again.String() != first.String() {
		t.Fatalf("fresh plans of one query differ:\n%s\n%s", first, again)
	}
}

// TestMemoEvictsOldestFirst: planning more distinct queries than the memo
// holds evicts from the oldest end, and an evicted query plans to the same
// plan as before.
func TestMemoEvictsOldestFirst(t *testing.T) {
	_, opt := testOpt(t)
	variant := func(i int) *query.Query { return job.Listing2(int32(i), false) }
	plans := make([]*exec.Plan, optimizer.MemoCap+8)
	for i := range plans {
		var err error
		if plans[i], err = opt.BuildPlan(variant(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{len(plans) - 1, 8} { // newest, and the oldest survivor
		if p, _ := opt.BuildPlan(variant(i)); p != plans[i] {
			t.Fatalf("variant %d should still be memoized", i)
		}
	}
	for _, i := range []int{0, 7} {
		p, err := opt.BuildPlan(variant(i))
		if err != nil {
			t.Fatal(err)
		}
		if p == plans[i] {
			t.Fatalf("variant %d should have been evicted", i)
		}
		if !reflect.DeepEqual(p, plans[i]) {
			t.Fatalf("variant %d plans differently after eviction:\n%s\n%s", i, plans[i], p)
		}
	}
}

// TestRepeatBuildPlanAllocatesNothing pins the memo's hit path: hashing,
// Equal and the statistics check work on the caller's query in place.
func TestRepeatBuildPlanAllocatesNothing(t *testing.T) {
	_, opt := testOpt(t)
	q, twin := job.QueryByName("29a"), job.QueryByName("29a") // 16 tables, every predicate kind
	want, err := opt.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if p, _ := opt.BuildPlan(twin); p != want {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("a memoized BuildPlan allocates %.0f objects, want 0", n)
	}
}

// benchQueries parses the JOB workload count times over, so that a benchmark
// iteration hands the optimizer query objects it has never held, as a server
// parsing SQL text does.
func benchQueries(b *testing.B, count int) [][]*query.Query {
	texts := workloadSQL(b)[:113]
	out := make([][]*query.Query, count)
	for i := range out {
		for _, text := range texts {
			out[i] = append(out[i], mustParse(b, text))
		}
	}
	return out
}

func perQuery(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
}

// BenchmarkBuildPlan plans the 113 JOB queries per iteration: first on an
// optimizer that has never seen them (every lookup a miss — what a statement
// costs the first time), repeat on a warm one (every lookup a hit).
func BenchmarkBuildPlan(b *testing.B) {
	ds, warm := testOpt(b)
	sets := benchQueries(b, 2)
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opt := optimizer.New(ds.Cat, ds.Model)
			for _, q := range sets[0] {
				if _, err := opt.BuildPlan(q); err != nil {
					b.Fatal(err)
				}
			}
		}
		perQuery(b, len(sets[0]))
	})
	b.Run("repeat", func(b *testing.B) {
		for _, q := range sets[0] {
			if _, err := warm.BuildPlan(q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range sets[1] {
				if _, err := warm.BuildPlan(q); err != nil {
					b.Fatal(err)
				}
			}
		}
		perQuery(b, len(sets[1]))
	})
}

// BenchmarkDecide is the repeat case of Decide: the plan comes from the memo,
// the split costs are priced per call.
func BenchmarkDecide(b *testing.B) {
	_, warm := testOpt(b)
	sets := benchQueries(b, 2)
	b.Run("repeat", func(b *testing.B) {
		for _, q := range sets[0] {
			if _, err := warm.Decide(q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range sets[1] {
				if _, err := warm.Decide(q); err != nil {
					b.Fatal(err)
				}
			}
		}
		perQuery(b, len(sets[1]))
	})
}
