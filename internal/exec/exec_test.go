package exec

import (
	"errors"
	"fmt"
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

// fixture builds customers(id, region) × orders(id, customer_id, amount)
// with a secondary index on orders.customer_id.
func fixture(t testing.TB, nCustomers, nOrders int) *table.Catalog {
	t.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	db := kv.Open(fl, hw.Cosmos(), lsm.DefaultConfig())
	cat := table.NewCatalog(db)

	customers := table.MustSchema("customers", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "region", Type: table.Char, Size: 8},
	}, "id")
	orders := table.MustSchema("orders", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "customer_id", Type: table.Int32, Size: 4},
		{Name: "amount", Type: table.Int32, Size: 4, Nullable: true},
	}, "id", table.SecondaryIndex{Name: "idx_customer", Column: "customer_id"})

	tc, err := cat.CreateTable(customers)
	if err != nil {
		t.Fatal(err)
	}
	to, err := cat.CreateTable(orders)
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	for i := 1; i <= nCustomers; i++ {
		if err := tc.Insert([]table.Value{
			table.IntVal(int32(i)), table.StrVal(regions[i%4]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= nOrders; i++ {
		amount := table.IntVal(int32(10 + i%100))
		if i%13 == 0 {
			amount = table.NullVal()
		}
		if err := to.Insert([]table.Value{
			table.IntVal(int32(i)), table.IntVal(int32(1 + i%nCustomers)), amount,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func joinQuery() *query.Query {
	return &query.Query{
		Name:   "q",
		Tables: []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"}},
		Filters: map[string]expr.Pred{
			"c": expr.Cmp{Col: "region", Op: expr.Eq, Val: table.StrVal("north")},
		},
		Joins:      []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		Aggregates: []query.Aggregate{{Func: query.Count, Star: true, As: "n"}},
	}
}

// planFor builds the physical plan by hand (no optimizer dependency).
func planFor(q *query.Query, jt JoinType, idxPK bool, idxName string) *Plan {
	return &Plan{
		Query: q,
		Driving: AccessPath{
			Ref:    q.Tables[0],
			Filter: q.Filters["c"],
			Proj:   []string{"id"},
			EstSel: 0.25,
		},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], Proj: []string{"customer_id"}, EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "id", RightCol: "customer_id"}},
			Type:  jt, RightIndexIsPK: idxPK, RightIndex: idxName,
		}},
		Aggregates: q.Aggregates,
	}
}

func hostEngine(cat *table.Catalog) *Engine {
	return &Engine{Cat: cat, TL: vclock.NewTimeline("host"), R: hw.HostRates(hw.Cosmos())}
}

func TestScanAccessFilterAndCharges(t *testing.T) {
	cat := fixture(t, 40, 1000)
	e := hostEngine(cat)
	ap := AccessPath{
		Ref:    query.TableRef{Alias: "c", Table: "customers"},
		Filter: expr.Cmp{Col: "region", Op: expr.Eq, Val: table.StrVal("north")},
		Proj:   []string{"id"},
	}
	rows, width, err := e.ScanAccess(ap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("north customers = %d, want 10", len(rows))
	}
	if width != 4 {
		t.Fatalf("projected width = %d", width)
	}
	if e.TL.Booked(hw.CatEval) <= 0 || e.TL.Booked(hw.CatFlashLoad) <= 0 {
		t.Fatal("scan charged nothing")
	}
}

func TestScanAccessPKRange(t *testing.T) {
	cat := fixture(t, 40, 1000)
	e := hostEngine(cat)
	lo, hi := int32(100), int32(200)
	rows, _, err := e.ScanAccess(AccessPath{Ref: query.TableRef{Alias: "o", Table: "orders"}}, &lo, &hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("PK range [100,200) returned %d rows", len(rows))
	}
	ordersT, _ := cat.Table("orders")
	for _, r := range rows {
		pk := (table.Record{Schema: ordersT.Schema, Data: r}).PK()
		if pk < lo || pk >= hi {
			t.Fatalf("pk %d outside range", pk)
		}
	}
}

func TestScanAccessIndexEquality(t *testing.T) {
	cat := fixture(t, 40, 1000)
	e := hostEngine(cat)
	ap := AccessPath{
		Ref:            query.TableRef{Alias: "o", Table: "orders"},
		Filter:         expr.Cmp{Col: "customer_id", Op: expr.Eq, Val: table.IntVal(7)},
		UseFilterIndex: true,
		FilterIndex:    "idx_customer",
		FilterValue:    table.IntVal(7),
	}
	rows, _, err := e.ScanAccess(ap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := hostEngine(cat).ScanAccess(AccessPath{
		Ref:    query.TableRef{Alias: "o", Table: "orders"},
		Filter: ap.Filter,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(full) || len(rows) == 0 {
		t.Fatalf("index access found %d rows, scan found %d", len(rows), len(full))
	}
	// PK-range restriction applies to the index path too.
	lo := int32(500)
	bounded, _, err := hostEngine(cat).ScanAccess(ap, &lo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded) >= len(rows) {
		t.Fatal("PK bound did not restrict the index path")
	}
}

func TestAllJoinAlgorithmsAgree(t *testing.T) {
	cat := fixture(t, 40, 2000)
	q := joinQuery()
	var ref int64 = -1
	for _, v := range []struct {
		jt      JoinType
		idxPK   bool
		idxName string
	}{
		{BNL, false, ""}, {NLJ, false, ""}, {GHJ, false, ""}, {BNLI, false, "idx_customer"},
	} {
		e := hostEngine(cat)
		res, err := e.RunPlan(planFor(q, v.jt, v.idxPK, v.idxName))
		if err != nil {
			t.Fatalf("%v: %v", v.jt, err)
		}
		n := int64(res.Rows[0][0].Int)
		if ref < 0 {
			ref = n
		} else if n != ref {
			t.Fatalf("%v counted %d, reference %d", v.jt, n, ref)
		}
	}
	if ref != 500 { // customers 1..40, north = i%4==1 → 10 customers × 50 orders
		t.Fatalf("join count = %d, want 500", ref)
	}
}

func TestBNLIPKJoin(t *testing.T) {
	cat := fixture(t, 40, 500)
	// orders ⋈ customers on customers.id (the PK side).
	q := &query.Query{
		Name:   "pkjoin",
		Tables: []query.TableRef{{Alias: "o", Table: "orders"}, {Alias: "c", Table: "customers"}},
		Joins:  []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		Aggregates: []query.Aggregate{
			{Func: query.Count, Star: true, As: "n"},
			{Func: query.Max, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "maxa"},
		},
	}
	p := &Plan{
		Query:   q,
		Driving: AccessPath{Ref: q.Tables[0], EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "customer_id", RightCol: "id"}},
			Type:  BNLI, RightIndexIsPK: true,
		}},
		Aggregates: q.Aggregates,
	}
	res, err := hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 500 {
		t.Fatalf("count = %v, want 500 (every order has its customer)", res.Rows[0][0])
	}
	if res.Rows[0][1].Int != 109 {
		t.Fatalf("max amount = %v, want 109", res.Rows[0][1])
	}
}

func TestNLJChargesMoreThanBNL(t *testing.T) {
	cat := fixture(t, 40, 2000)
	q := joinQuery()
	eb := hostEngine(cat)
	if _, err := eb.RunPlan(planFor(q, BNL, false, "")); err != nil {
		t.Fatal(err)
	}
	en := hostEngine(cat)
	if _, err := en.RunPlan(planFor(q, NLJ, false, "")); err != nil {
		t.Fatal(err)
	}
	if en.TL.Now() <= eb.TL.Now() {
		t.Fatalf("NLJ (%v) must cost more than hash BNL (%v)", en.TL.Now(), eb.TL.Now())
	}
}

func TestBoundedJoinBufferChargesPasses(t *testing.T) {
	cat := fixture(t, 40, 4000)
	q := joinQuery()
	// Outer (driving customers) too small to trigger passes — use orders as
	// driving by swapping the plan: orders ⋈ customers with a tiny buffer.
	p := &Plan{
		Query:   q,
		Driving: AccessPath{Ref: query.TableRef{Alias: "o", Table: "orders"}, EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: query.TableRef{Alias: "c", Table: "customers"},
				Filter: q.Filters["c"], EstSel: 0.25},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "customer_id", RightCol: "id"}},
			Type:  BNL,
		}},
		Aggregates: q.Aggregates,
	}
	unbounded := hostEngine(cat)
	if _, err := unbounded.RunPlan(p); err != nil {
		t.Fatal(err)
	}
	bounded := hostEngine(cat)
	bounded.JoinBuf = 64 // bytes — forces inner re-passes per outer block
	if _, err := bounded.RunPlan(p); err != nil {
		t.Fatal(err)
	}
	if bounded.TL.Now() <= unbounded.TL.Now() {
		t.Fatalf("bounded buffer (%v) must cost more than unbounded (%v)",
			bounded.TL.Now(), unbounded.TL.Now())
	}
}

func TestPointerCacheCheapensCopiesButDerefs(t *testing.T) {
	cat := fixture(t, 40, 2000)
	q := joinQuery()
	p := planFor(q, BNL, false, "")
	// Full-width rows: the pointer format (8 B/position) only pays off when
	// rows are wider than a pointer.
	p.Driving.Proj = nil
	p.Steps[0].Right.Proj = nil
	row := hostEngine(cat)
	row.PointerCache = false
	row.RunPlan(p)
	ptr := hostEngine(cat)
	ptr.PointerCache = true
	ptr.RunPlan(p)
	if ptr.TL.Booked(hw.CatMemcpy) >= row.TL.Booked(hw.CatMemcpy) {
		t.Fatal("pointer cache must copy fewer bytes")
	}
	if ptr.TL.Booked(hw.CatBufferManage) <= row.TL.Booked(hw.CatBufferManage) {
		t.Fatal("pointer cache must pay dereferencing")
	}
}

func TestGroupBy(t *testing.T) {
	cat := fixture(t, 40, 2000)
	q := &query.Query{
		Name:   "grouped",
		Tables: []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"}},
		Joins:  []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		GroupBy: []query.ColRef{
			{Alias: "c", Col: "region"},
		},
		Aggregates: []query.Aggregate{
			{Func: query.Count, Star: true, As: "n"},
			{Func: query.Sum, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "s"},
			{Func: query.Avg, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "a"},
			{Func: query.Min, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "lo"},
		},
	}
	p := &Plan{
		Query:   q,
		Driving: AccessPath{Ref: q.Tables[0], EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "id", RightCol: "customer_id"}},
			Type:  BNL,
		}},
		GroupBy:    q.GroupBy,
		Aggregates: q.Aggregates,
	}
	res, err := hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 4 {
		t.Fatalf("groups = %d, want 4 regions", res.RowCount)
	}
	var total int64
	for _, row := range res.Rows {
		total += int64(row[1].Int)
	}
	if total != 2000 {
		t.Fatalf("counts sum to %d, want 2000", total)
	}
}

// TestGroupAggregateOrderPreserved pins the group output order to the first
// occurrence of each key in the join output: the open-addressing group table
// must reproduce the insertion order the string-keyed map maintained via its
// explicit order slice. Customers scan in PK order and regions cycle
// south/east/west/north from id 1, so that is the only acceptable output
// order.
func TestGroupAggregateOrderPreserved(t *testing.T) {
	cat := fixture(t, 40, 2000)
	q := &query.Query{
		Name:    "grouped-order",
		Tables:  []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"}},
		Joins:   []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		GroupBy: []query.ColRef{{Alias: "c", Col: "region"}},
		Aggregates: []query.Aggregate{
			{Func: query.Count, Star: true, As: "n"},
		},
	}
	p := &Plan{
		Query:   q,
		Driving: AccessPath{Ref: q.Tables[0], EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "id", RightCol: "customer_id"}},
			Type:  BNL,
		}},
		GroupBy:    q.GroupBy,
		Aggregates: q.Aggregates,
	}
	res, err := hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"south", "east", "west", "north"}
	if res.RowCount != int64(len(want)) {
		t.Fatalf("groups = %d, want %d", res.RowCount, len(want))
	}
	for i, w := range want {
		if got := res.Rows[i][0].Str; got != w {
			t.Fatalf("group %d = %q, want %q (first-occurrence order violated)", i, got, w)
		}
	}
}

func TestEmptyAggregateReturnsNullRow(t *testing.T) {
	cat := fixture(t, 40, 200)
	q := joinQuery()
	q.Filters["c"] = expr.Cmp{Col: "region", Op: expr.Eq, Val: table.StrVal("atlantis")}
	q.Aggregates = []query.Aggregate{
		{Func: query.Min, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "m"},
		{Func: query.Count, Star: true, As: "n"},
	}
	p := planFor(q, BNL, false, "")
	p.Driving.Filter = q.Filters["c"]
	p.Aggregates = q.Aggregates
	res, err := hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 1 || !res.Rows[0][0].Null || res.Rows[0][1].Int != 0 {
		t.Fatalf("empty aggregate = %+v, want [NULL, 0]", res.Rows[0])
	}
}

func TestProjection(t *testing.T) {
	cat := fixture(t, 20, 100)
	q := &query.Query{
		Name:   "proj",
		Tables: []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"}},
		Joins:  []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		Output: []query.ColRef{{Alias: "c", Col: "region"}, {Alias: "o", Col: "amount"}},
	}
	p := &Plan{
		Query:   q,
		Driving: AccessPath{Ref: q.Tables[0], EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "id", RightCol: "customer_id"}},
			Type:  BNL,
		}},
		Output: q.Output,
	}
	res, err := hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 100 {
		t.Fatalf("projection rows = %d", res.RowCount)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "c.region" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("retained %d rows", len(res.Rows))
	}
	if res.Bytes <= 0 {
		t.Fatal("projection bytes not tracked")
	}
	// SELECT * shape.
	p.Output = nil
	res, err = hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 { // 2 customer cols + 3 order cols
		t.Fatalf("SELECT * columns = %v", res.Columns)
	}
}

func TestSeedInnerUsesShippedRows(t *testing.T) {
	cat := fixture(t, 40, 1000)
	q := joinQuery()
	p := planFor(q, BNL, false, "")
	e := hostEngine(cat)
	pl, err := e.StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	// Ship only orders of customer 1 as the seeded inner side.
	all, _, err := e.ScanAccess(AccessPath{Ref: query.TableRef{Alias: "o", Table: "orders"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordersT, _ := cat.Table("orders")
	var shipped [][]byte
	for _, r := range all {
		// Customer 4 is in region "north" (regions[i%4] with i=4).
		if (table.Record{Schema: ordersT.Schema, Data: r}).GetByName("customer_id").Int == 4 {
			shipped = append(shipped, r)
		}
	}
	if err := e.SeedInner(pl, 0, shipped); err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.ScanAccess(p.Driving, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = Tuple{r}
	}
	out, err := e.JoinStep(pl, 0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(shipped) {
		t.Fatalf("seeded join produced %d tuples, want %d", len(out), len(shipped))
	}
}

func TestEngineReadsThroughViews(t *testing.T) {
	cat := fixture(t, 20, 300)
	ot, _ := cat.Table("orders")
	frozen := map[string]*lsm.View{"orders": ot.Data.View()}

	// Post-snapshot writes (update-aware NDP: invisible on device).
	for i := int32(301); i <= 400; i++ {
		if err := ot.Insert([]table.Value{
			table.IntVal(i), table.IntVal(1), table.IntVal(1),
		}); err != nil {
			t.Fatal(err)
		}
	}

	ap := AccessPath{Ref: query.TableRef{Alias: "o", Table: "orders"}}
	snapEng := hostEngine(cat)
	snapEng.Views = frozen
	snapRows, _, err := snapEng.ScanAccess(ap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveRows, _, err := hostEngine(cat).ScanAccess(ap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapRows) != 300 {
		t.Fatalf("snapshot engine saw %d rows, want 300", len(snapRows))
	}
	if len(liveRows) != 400 {
		t.Fatalf("live engine saw %d rows, want 400", len(liveRows))
	}
	// BNLI point lookups honour the view too.
	rec, ok, err := ot.GetByPKView(frozen["orders"], 350, lsm.Access{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("view resolved post-snapshot PK 350: %v", rec.PK())
	}
}

func TestShapeAndTuple(t *testing.T) {
	cat := fixture(t, 5, 5)
	ct, _ := cat.Table("customers")
	ot, _ := cat.Table("orders")
	sh := NewShape([]string{"c"}, []*table.Schema{ct.Schema})
	sh2 := sh.Extend("o", ot.Schema)
	if sh2.Pos("c") != 0 || sh2.Pos("o") != 1 || sh2.Pos("x") != -1 {
		t.Fatal("shape positions wrong")
	}
	if sh.Pos("o") != -1 {
		t.Fatal("Extend must not mutate the original shape")
	}
	crow, _ := ct.Schema.EncodeRow([]table.Value{table.IntVal(9), table.StrVal("r")})
	tu := Tuple{crow, nil}
	if tu.Col(sh2, "c", "id").Int != 9 {
		t.Fatal("tuple column resolution broken")
	}
	if !tu.Col(sh2, "o", "amount").Null {
		t.Fatal("nil row position must yield NULL")
	}
	if !tu.Col(sh2, "zz", "id").Null {
		t.Fatal("unknown alias must yield NULL")
	}
}

func TestPlanStringAndAliases(t *testing.T) {
	q := joinQuery()
	p := planFor(q, BNLI, false, "idx_customer")
	if p.NumTables() != 2 {
		t.Fatal("NumTables")
	}
	al := p.Aliases()
	if len(al) != 2 || al[0] != "c" || al[1] != "o" {
		t.Fatalf("aliases = %v", al)
	}
	s := p.String()
	if s == "" || len(s) < 10 {
		t.Fatal("plan rendering empty")
	}
	for _, jt := range []JoinType{BNL, BNLI, NLJ, GHJ, JoinType(99)} {
		if jt.String() == "" {
			t.Fatal("join type rendering empty")
		}
	}
}

func TestRetainRowsCap(t *testing.T) {
	cat := fixture(t, 300, 0)
	q := &query.Query{
		Name:   "wide",
		Tables: []query.TableRef{{Alias: "c", Table: "customers"}},
		Output: []query.ColRef{{Alias: "c", Col: "id"}},
	}
	p := &Plan{Query: q, Driving: AccessPath{Ref: q.Tables[0], EstSel: 1}, Output: q.Output}
	res, err := hostEngine(cat).RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 300 {
		t.Fatalf("RowCount = %d", res.RowCount)
	}
	if len(res.Rows) != RetainRows {
		t.Fatalf("retained %d rows, cap is %d", len(res.Rows), RetainRows)
	}
}

func BenchmarkScanFilter(b *testing.B) {
	cat := fixture(b, 100, 20000)
	ap := AccessPath{
		Ref:    query.TableRef{Alias: "o", Table: "orders"},
		Filter: expr.Cmp{Col: "amount", Op: expr.Gt, Val: table.IntVal(50)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := hostEngine(cat)
		if _, _, err := e.ScanAccess(ap, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	cat := fixture(b, 100, 20000)
	q := joinQuery()
	p := planFor(q, BNL, false, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hostEngine(cat).RunPlan(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinStep isolates the buffered-join hot path: hash-build the inner
// side and probe every outer tuple, without the scan of the outer table. The
// allocs/op of this benchmark is the perf-trajectory gate for the
// zero-allocation join path (make bench-json).
func BenchmarkJoinStep(b *testing.B) {
	cat := fixture(b, 100, 20000)
	q := joinQuery()
	p := planFor(q, BNL, false, "")
	e := hostEngine(cat)
	rows, _, err := e.ScanAccess(p.Driving, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := hostEngine(cat)
		pl, err := e.StartPipeline(p)
		if err != nil {
			b.Fatal(err)
		}
		tuples := pl.MakeTuples(rows)
		out, err := e.JoinStep(pl, 0, tuples)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("join produced nothing")
		}
	}
}

// BenchmarkGroupAggregate isolates hash grouping with aggregates over an
// already-joined tuple set (the groupAggregate hot path).
func BenchmarkGroupAggregate(b *testing.B) {
	cat := fixture(b, 100, 20000)
	q := &query.Query{
		Name:    "grouped",
		Tables:  []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"}},
		Joins:   []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		GroupBy: []query.ColRef{{Alias: "c", Col: "region"}},
		Aggregates: []query.Aggregate{
			{Func: query.Count, Star: true, As: "n"},
			{Func: query.Sum, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "s"},
			{Func: query.Min, Arg: query.ColRef{Alias: "o", Col: "amount"}, As: "lo"},
		},
	}
	p := &Plan{
		Query:   q,
		Driving: AccessPath{Ref: q.Tables[0], EstSel: 1},
		Steps: []JoinStep{{
			Right: AccessPath{Ref: q.Tables[1], EstSel: 1},
			Conds: []BoundCond{{LeftPos: 0, LeftCol: "id", RightCol: "customer_id"}},
			Type:  BNL,
		}},
		GroupBy:    q.GroupBy,
		Aggregates: q.Aggregates,
	}
	e := hostEngine(cat)
	pl, err := e.StartPipeline(p)
	if err != nil {
		b.Fatal(err)
	}
	rows, _, err := e.ScanAccess(p.Driving, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := e.JoinStep(pl, 0, pl.MakeTuples(rows))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2 := hostEngine(cat)
		pl2, err := e2.StartPipeline(p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e2.Finalize(pl2, tuples)
		if err != nil {
			b.Fatal(err)
		}
		if res.RowCount != 4 {
			b.Fatalf("groups = %d", res.RowCount)
		}
	}
}

// BenchmarkBatchSize sweeps the columnar batch row capacity over the full
// scan→hash-join pipeline. It backs the EXPERIMENTS.md batch-size table that
// picked DefaultBatchSize; it is deliberately absent from the bench-json
// regex so the trajectory artifact tracks one configuration only.
func BenchmarkBatchSize(b *testing.B) {
	cat := fixture(b, 100, 20000)
	q := joinQuery()
	p := planFor(q, BNL, false, "")
	for _, bs := range []int{1, 7, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := hostEngine(cat)
				e.BatchSize = bs
				if _, err := e.RunPlan(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// failNthRead is a flash.Faults stub: the n-th read it sees fails (n = 0:
// none does).
type failNthRead struct {
	n, calls int
	err      error
}

func (f *failNthRead) ReadFault(flash.FileID, int64, int64) error {
	f.calls++
	if f.calls == f.n {
		return f.err
	}
	return nil
}

// TestScanSurfacesFlashReadFault fails every flash read of a scan in turn:
// whichever block is lost — the first, one mid-scan, the look-ahead read past
// the last row — the caller must get the error, never a shorter row set. The
// iterator only turns invalid on a failed read, so a consumer that does not
// ask Err() mistakes the fault for the end of the table.
func TestScanSurfacesFlashReadFault(t *testing.T) {
	cat := fixture(t, 40, 4000)
	boom := errors.New("injected flash read failure")
	orders := AccessPath{Ref: query.TableRef{Alias: "o", Table: "orders"}}
	ordersT, err := cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int32(1000), int32(3000)
	for _, c := range []struct {
		name string
		run  func(e *Engine) (int, error)
	}{
		{"scan", func(e *Engine) (int, error) {
			rows, _, err := e.ScanAccess(orders, nil, nil)
			return len(rows), err
		}},
		{"scan PK range", func(e *Engine) (int, error) {
			rows, _, err := e.ScanAccess(orders, &lo, &hi)
			return len(rows), err
		}},
		{"ScanCols", func(e *Engine) (int, error) {
			cb, _, err := e.ScanCols(orders, nil, nil)
			if err != nil {
				return 0, err
			}
			return len(cb.View()), nil
		}},
		{"IndexSeek", func(e *Engine) (int, error) {
			pks, err := ordersT.IndexSeek("idx_customer", table.IntVal(7), e.Access())
			return len(pks), err
		}},
	} {
		clean := &failNthRead{}
		e := hostEngine(cat)
		e.Faults = clean
		want, err := c.run(e)
		if err != nil || want == 0 || clean.calls < 2 {
			t.Fatalf("%s: fault-free run returned %d rows over %d reads, err %v", c.name, want, clean.calls, err)
		}
		for n := 1; n <= clean.calls; n++ {
			e := hostEngine(cat)
			e.Faults = &failNthRead{n: n, err: boom}
			if got, err := c.run(e); !errors.Is(err, boom) {
				t.Fatalf("%s: read %d of %d failed, yet the call returned %d of %d rows and err %v",
					c.name, n, clean.calls, got, want, err)
			}
		}
	}
}
