package query

import (
	"strings"
	"testing"

	"hybridndp/internal/expr"
	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
)

func testCatalog(t *testing.T) *table.Catalog {
	t.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	db := kv.Open(fl, lsm.DefaultConfig())
	cat := table.NewCatalog(db)
	a := table.MustSchema("ta", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "x", Type: table.Int32, Size: 4, Nullable: true},
	}, "id")
	b := table.MustSchema("tb", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "a_id", Type: table.Int32, Size: 4},
		{Name: "note", Type: table.Char, Size: 8, Nullable: true},
	}, "id")
	if _, err := cat.CreateTable(a); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable(b); err != nil {
		t.Fatal(err)
	}
	return cat
}

func validQuery() *Query {
	return &Query{
		Name:   "q",
		Tables: []TableRef{{Alias: "a", Table: "ta"}, {Alias: "b", Table: "tb"}},
		Filters: map[string]expr.Pred{
			"b": expr.IsNull{Col: "note"},
		},
		Joins:      []JoinCond{{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}},
		Aggregates: []Aggregate{{Func: Min, Arg: ColRef{Alias: "a", Col: "x"}}},
	}
}

func TestValidateAccepts(t *testing.T) {
	cat := testCatalog(t)
	if err := validQuery().Validate(cat); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		name string
		mut  func(*Query)
	}{
		{"no tables", func(q *Query) { q.Tables = nil }},
		{"dup alias", func(q *Query) { q.Tables = append(q.Tables, TableRef{Alias: "a", Table: "tb"}) }},
		{"unknown table", func(q *Query) { q.Tables[0].Table = "ghost" }},
		{"filter on unknown alias", func(q *Query) { q.Filters["z"] = expr.IsNull{Col: "note"} }},
		{"filter on unknown column", func(q *Query) { q.Filters["a"] = expr.IsNull{Col: "ghost"} }},
		{"join unknown alias", func(q *Query) { q.Joins[0].LeftAlias = "z" }},
		{"join unknown column", func(q *Query) { q.Joins[0].RightCol = "ghost" }},
		{"agg unknown column", func(q *Query) { q.Aggregates[0].Arg.Col = "ghost" }},
		{"output unknown column", func(q *Query) { q.Output = []ColRef{{Alias: "a", Col: "ghost"}} }},
		{"group unknown column", func(q *Query) { q.GroupBy = []ColRef{{Alias: "b", Col: "ghost"}} }},
		{"disconnected", func(q *Query) { q.Joins = nil }},
	}
	for _, c := range cases {
		q := validQuery()
		c.mut(q)
		if err := q.Validate(cat); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestConnectivityIsTransitive(t *testing.T) {
	cat := testCatalog(t)
	q := validQuery()
	// A third reference of ta connected through b only.
	q.Tables = append(q.Tables, TableRef{Alias: "a2", Table: "ta"})
	q.Joins = append(q.Joins, JoinCond{LeftAlias: "b", LeftCol: "a_id", RightAlias: "a2", RightCol: "id"})
	if err := q.Validate(cat); err != nil {
		t.Fatalf("transitively connected query rejected: %v", err)
	}
}

func TestProjectedColumns(t *testing.T) {
	q := validQuery()
	q.Output = []ColRef{{Alias: "b", Col: "note"}}
	q.GroupBy = []ColRef{{Alias: "b", Col: "note"}}
	proj := q.ProjectedColumns()
	// a: x (aggregate) + id (join); b: a_id (join) + note (output/group).
	if got := strings.Join(proj[0], ","); got != "id,x" {
		t.Fatalf("proj[a] = %q", got)
	}
	if got := strings.Join(proj[1], ","); got != "a_id,note" {
		t.Fatalf("proj[b] = %q", got)
	}
}

func TestJoinCondHelpers(t *testing.T) {
	j := JoinCond{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}
	if j.String() != "a.id = b.a_id" {
		t.Fatalf("String = %q", j.String())
	}
}

func TestAggregateRendering(t *testing.T) {
	if (Aggregate{Func: Count, Star: true}).String() != "COUNT(*)" {
		t.Fatal("COUNT(*) rendering")
	}
	a := Aggregate{Func: Max, Arg: ColRef{Alias: "t", Col: "c"}}
	if a.String() != "MAX(t.c)" {
		t.Fatalf("got %q", a.String())
	}
	for _, f := range []AggFunc{Min, Max, Sum, Avg, Count} {
		if f.String() == "AGG" {
			t.Fatal("unnamed aggregate function")
		}
	}
}
