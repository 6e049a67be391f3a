package exec

import (
	"math"
	"reflect"
	"testing"

	"hybridndp/internal/expr"
	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// runMaterialized is the chain before streaming: every join step runs once
// over the whole intermediate before the next, and the top over the last.
func runMaterialized(e *Engine, p *Plan) (*Result, error) {
	pl, err := e.StartPipeline(p)
	if err != nil {
		return nil, err
	}
	rows, _, err := e.ScanAccess(pl, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	tuples := pl.MakeTuples(rows)
	for si := range p.Steps {
		if tuples, err = e.JoinStep(pl, si, tuples); err != nil {
			return nil, err
		}
	}
	return e.Finalize(pl, tuples)
}

// sameTimeline reports whether two timelines hold the same instant and the
// same account, bit for bit.
func sameTimeline(a, b *vclock.Timeline) bool {
	return math.Float64bits(float64(a.Now())) == math.Float64bits(float64(b.Now())) &&
		reflect.DeepEqual(a.Account(), b.Account())
}

// threeWay is customers c ⋈ orders o ⋈ customers c2: a BNLI step into orders
// whose right filter oFilter decides how much reaches the BNL step after it.
func threeWay(oFilter expr.Pred) *Plan {
	q := &query.Query{
		Name: "three-way",
		Tables: []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"},
			{Alias: "c2", Table: "customers"}},
		Aggregates: []query.Aggregate{
			{Func: query.Count, Star: true, As: "n"},
			{Func: query.Max, Arg: query.ColRef{Alias: "c2", Col: "region"}, As: "r"},
		},
	}
	return &Plan{
		Query:   q,
		Driving: AccessPath{Ref: q.Tables[0], EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], Filter: oFilter, EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "id", RightCol: "customer_id"}},
			Type:  BNLI, RightIndex: "idx_customer",
		}, {
			Right: AccessPath{Ref: q.Tables[2], EstSel: 1},
			Conds: []BoundCond{{LeftPos: 1, LeftCol: "customer_id", RightCol: "id"}},
			Type:  BNL,
		}},
		Aggregates: q.Aggregates,
	}
}

// TestStreamedChainMatchesMaterialized runs plans through the streamed chain
// at piece budgets from one tuple up and compares them with the materialized
// chain: the same result always, and the same timeline, bit for bit, once
// every intermediate fits one piece.
func TestStreamedChainMatchesMaterialized(t *testing.T) {
	cat := fixture(t, 40, 2000)
	plans := map[string]*Plan{
		"all":   threeWay(nil),
		"some":  threeWay(expr.Cmp{Col: "amount", Op: expr.Lt, Val: table.IntVal(20)}),
		"empty": threeWay(expr.Cmp{Col: "amount", Op: expr.Lt, Val: table.IntVal(0)}),
	}
	for name, p := range plans {
		ref := hostEngine(cat)
		want, err := runMaterialized(ref, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 7, 500, pieceTuples} {
			restore := SetPieceBudget(budget)
			e := hostEngine(cat)
			got, err := e.RunPlan(p)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at budget %d: result %+v, materialized %+v", name, budget, got, want)
			}
			if fits := budget > 2000; fits && !sameTimeline(e.TL, ref.TL) {
				t.Errorf("%s at budget %d: timeline %v %v, materialized %v %v",
					name, budget, e.TL.Now(), e.TL.Account(), ref.TL.Now(), ref.TL.Account())
			}
		}
	}
}

// TestEmptyIntermediateBuildsLaterInners is the guard on the streamed chain's
// empty pieces: when a step produces nothing, every BNL step after it still
// runs once, so its inner side is built and booked as in a materialized
// chain — a chain that skipped empty pieces would lose those charges.
func TestEmptyIntermediateBuildsLaterInners(t *testing.T) {
	cat := fixture(t, 40, 2000)
	p := threeWay(expr.Cmp{Col: "amount", Op: expr.Lt, Val: table.IntVal(0)})
	ref := hostEngine(cat)
	if _, err := runMaterialized(ref, p); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, pieceTuples} {
		restore := SetPieceBudget(budget)
		e := hostEngine(cat)
		pl, err := e.StartPipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := e.ScanAccess(pl, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := e.finalizer(pl)
		if err != nil {
			t.Fatal(err)
		}
		err = e.stream(pl, 0, pl.MakeTuples(rows), false, nil, f.sink)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		res := f.result()
		if res.RowCount != 1 || res.Rows[0][0].Int != 0 {
			t.Fatalf("budget %d: the empty join produced %+v", budget, res.Rows)
		}
		if !pl.inner[1].built {
			t.Fatalf("budget %d: the BNL step after the empty intermediate never built its inner side", budget)
		}
		if !sameTimeline(e.TL, ref.TL) {
			t.Errorf("budget %d: timeline %v %v, materialized %v %v",
				budget, e.TL.Now(), e.TL.Account(), ref.TL.Now(), ref.TL.Account())
		}
	}
}

// TestCharMinMaxComparesStoredBytes checks MIN and MAX over a CHAR column,
// which compare stored payloads and decode only the winner, against a fold
// over the decoded strings: NULLs skipped, an all-NULL group NULL, the empty
// string (read back as the integer accumulator, 0, as the decoded fold always
// has), NUL padding, full-width values, embedded NULs and ties.
func TestCharMinMaxComparesStoredBytes(t *testing.T) {
	fl := flash.New(hw.Cosmos(), 0)
	cat := table.NewCatalog(kv.Open(fl, lsm.DefaultConfig()))
	items := table.MustSchema("items", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "grp", Type: table.Int32, Size: 4},
		{Name: "name", Type: table.Char, Size: 8, Nullable: true},
	}, "id")
	tab, err := cat.CreateTable(items)
	if err != nil {
		t.Fatal(err)
	}
	null := table.NullVal()
	str := table.StrVal
	groups := [][]table.Value{
		{null, null},
		{str(""), str("b"), null},
		{str("abc"), str("ab"), str("abcdefgh"), str("ab"), str("abcdefgh")},
		{str("a\x00b"), str("a"), str("a\x00")},
		{str("zz"), null, str("zz")},
		{str("b"), str("")},
	}
	var slab []byte
	id := int32(0)
	// Interleave the groups so every batch and piece boundary cuts across them.
	for i := 0; ; i++ {
		added := false
		for g, vals := range groups {
			if i < len(vals) {
				id++
				if slab, err = items.AppendRow(slab, []table.Value{table.IntVal(id), table.IntVal(int32(g)), vals[i]}); err != nil {
					t.Fatal(err)
				}
				added = true
			}
		}
		if !added {
			break
		}
	}
	if err := tab.BulkLoad(slab); err != nil {
		t.Fatal(err)
	}

	name := query.ColRef{Alias: "i", Col: "name"}
	q := &query.Query{
		Name:    "char-minmax",
		Tables:  []query.TableRef{{Alias: "i", Table: "items"}},
		GroupBy: []query.ColRef{{Alias: "i", Col: "grp"}},
		Aggregates: []query.Aggregate{
			{Func: query.Min, Arg: name, As: "lo"},
			{Func: query.Max, Arg: name, As: "hi"},
			{Func: query.Count, Arg: name, As: "n"},
		},
	}
	p := &Plan{Query: q, Driving: AccessPath{Ref: q.Tables[0], EstSel: 1}, GroupBy: q.GroupBy, Aggregates: q.Aggregates}

	// The reference folds decoded strings in scan order, group by group.
	fold := func(vals []table.Value, less func(a, b string) bool) table.Value {
		var cur string
		seen := false
		for _, v := range vals {
			if !v.Null && (!seen || less(v.Str, cur)) {
				cur, seen = v.Str, true
			}
		}
		switch {
		case !seen:
			return null
		case cur == "":
			return table.IntVal(0)
		}
		return str(cur)
	}
	for _, bs := range []int{1, 7, DefaultBatchSize} {
		restore := SetBatchSize(bs)
		res, err := hostEngine(cat).RunPlan(p)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if res.RowCount != int64(len(groups)) {
			t.Fatalf("batch %d: %d groups, want %d", bs, res.RowCount, len(groups))
		}
		for g, vals := range groups {
			n := 0
			for _, v := range vals {
				if !v.Null {
					n++
				}
			}
			want := []table.Value{table.IntVal(int32(g)),
				fold(vals, func(a, b string) bool { return a < b }),
				fold(vals, func(a, b string) bool { return a > b }),
				table.IntVal(int32(n))}
			if got := res.Rows[g]; !reflect.DeepEqual(got, want) {
				t.Errorf("batch %d, group %d: got %+v, want %+v", bs, g, got, want)
			}
		}
	}
}
