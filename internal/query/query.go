// Package query defines the logical query model of the reproduction: the
// select-project-join-aggregate shape of the Join-Order Benchmark, which the
// optimizer turns into a split physical plan and the engines execute.
package query

import (
	"fmt"
	"slices"
	"strings"

	"hybridndp/internal/expr"
	"hybridndp/internal/table"
)

// TableRef names a base table with its alias.
type TableRef struct {
	Alias string
	Table string
}

func (r TableRef) String() string { return r.Table + " AS " + r.Alias }

// JoinCond is an equality join condition between two aliased columns.
type JoinCond struct {
	LeftAlias, LeftCol   string
	RightAlias, RightCol string
}

func (c JoinCond) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", c.LeftAlias, c.LeftCol, c.RightAlias, c.RightCol)
}

// Touches reports whether the condition references alias.
func (c JoinCond) Touches(alias string) bool {
	return c.LeftAlias == alias || c.RightAlias == alias
}

// Other returns the alias on the opposite side, or "".
func (c JoinCond) Other(alias string) string {
	switch alias {
	case c.LeftAlias:
		return c.RightAlias
	case c.RightAlias:
		return c.LeftAlias
	}
	return ""
}

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions supported in-situ by nKV (paper §2.1).
const (
	Min AggFunc = iota
	Max
	Sum
	Avg
	Count
)

func (f AggFunc) String() string {
	switch f {
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Count:
		return "COUNT"
	}
	return "AGG"
}

// ColRef is an aliased column reference.
type ColRef struct {
	Alias string
	Col   string
}

func (c ColRef) String() string { return c.Alias + "." + c.Col }

// Aggregate is one aggregate output.
type Aggregate struct {
	Func AggFunc
	Arg  ColRef // ignored for COUNT(*)
	Star bool
	As   string
}

func (a Aggregate) String() string {
	if a.Star {
		return a.Func.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}

// Query is one logical query.
type Query struct {
	Name       string
	Tables     []TableRef
	Filters    map[string]expr.Pred // alias → local predicate
	Joins      []JoinCond
	Output     []ColRef // plain projected columns
	Aggregates []Aggregate
	GroupBy    []ColRef
}

// Validate checks referential consistency against a catalog.
func (q *Query) Validate(cat *table.Catalog) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query %s: no tables", q.Name)
	}
	aliases := map[string]*table.Schema{}
	for _, t := range q.Tables {
		if _, dup := aliases[t.Alias]; dup {
			return fmt.Errorf("query %s: duplicate alias %q", q.Name, t.Alias)
		}
		tbl, err := cat.Table(t.Table)
		if err != nil {
			return fmt.Errorf("query %s: %v", q.Name, err)
		}
		aliases[t.Alias] = tbl.Schema
	}
	checkCol := func(c ColRef) error {
		s, ok := aliases[c.Alias]
		if !ok {
			return fmt.Errorf("query %s: unknown alias %q", q.Name, c.Alias)
		}
		if s.ColumnIndex(c.Col) < 0 {
			return fmt.Errorf("query %s: table %s has no column %q", q.Name, s.Name, c.Col)
		}
		return nil
	}
	for alias, p := range q.Filters {
		s, ok := aliases[alias]
		if !ok {
			return fmt.Errorf("query %s: filter on unknown alias %q", q.Name, alias)
		}
		for _, col := range p.Columns() {
			if s.ColumnIndex(col) < 0 {
				return fmt.Errorf("query %s: filter references %s.%s which does not exist", q.Name, alias, col)
			}
		}
	}
	for _, j := range q.Joins {
		if err := checkCol(ColRef{j.LeftAlias, j.LeftCol}); err != nil {
			return err
		}
		if err := checkCol(ColRef{j.RightAlias, j.RightCol}); err != nil {
			return err
		}
	}
	for _, c := range q.Output {
		if err := checkCol(c); err != nil {
			return err
		}
	}
	for _, a := range q.Aggregates {
		if !a.Star {
			if err := checkCol(a.Arg); err != nil {
				return err
			}
		}
	}
	for _, c := range q.GroupBy {
		if err := checkCol(c); err != nil {
			return err
		}
	}
	// Connectivity: every table must be reachable through join conditions.
	if len(q.Tables) > 1 {
		reach := map[string]bool{q.Tables[0].Alias: true}
		for changed := true; changed; {
			changed = false
			for _, j := range q.Joins {
				l, r := reach[j.LeftAlias], reach[j.RightAlias]
				if l != r {
					reach[j.LeftAlias], reach[j.RightAlias] = true, true
					changed = true
				}
			}
		}
		for _, t := range q.Tables {
			if !reach[t.Alias] {
				return fmt.Errorf("query %s: table %s is not connected by any join condition", q.Name, t.Alias)
			}
		}
	}
	return nil
}

// TablePos is the position of alias in FROM, or -1.
func (q *Query) TablePos(alias string) int {
	return slices.IndexFunc(q.Tables, func(r TableRef) bool { return r.Alias == alias })
}

// ProjectedColumns reports, per table in FROM order, the sorted set of columns
// needed above the scan: output columns, aggregate arguments, group-by keys
// and join columns (nil when the query needs none of a table's columns). This
// drives early projection (a size-reducing NDP staple).
func (q *Query) ProjectedColumns() [][]string {
	out := make([][]string, len(q.Tables))
	add := func(alias, col string) {
		i := q.TablePos(alias)
		if i < 0 || slices.Contains(out[i], col) {
			return
		}
		if out[i] == nil {
			out[i] = make([]string, 0, 4)
		}
		out[i] = append(out[i], col)
	}
	for _, c := range q.Output {
		add(c.Alias, c.Col)
	}
	for _, a := range q.Aggregates {
		if !a.Star {
			add(a.Arg.Alias, a.Arg.Col)
		}
	}
	for _, c := range q.GroupBy {
		add(c.Alias, c.Col)
	}
	for _, j := range q.Joins {
		add(j.LeftAlias, j.LeftCol)
		add(j.RightAlias, j.RightCol)
	}
	// Stable order for deterministic plans.
	for _, cols := range out {
		slices.Sort(cols)
	}
	return out
}

// SQL renders an approximate SQL text of the query for display.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var sel []string
	for _, a := range q.Aggregates {
		sel = append(sel, a.String())
	}
	for _, c := range q.Output {
		sel = append(sel, c.String())
	}
	if len(sel) == 0 {
		sel = []string{"*"}
	}
	b.WriteString(strings.Join(sel, ", "))
	b.WriteString("\nFROM ")
	var tabs []string
	for _, t := range q.Tables {
		tabs = append(tabs, t.String())
	}
	b.WriteString(strings.Join(tabs, ", "))
	var conds []string
	for _, t := range q.Tables {
		if p, ok := q.Filters[t.Alias]; ok {
			// Filter predicates render bare column names; mark the owning
			// alias so the display stays unambiguous across tables.
			conds = append(conds, fmt.Sprintf("/* %s */ %s", t.Alias, p.String()))
		}
	}
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	if len(conds) > 0 {
		b.WriteString("\nWHERE ")
		b.WriteString(strings.Join(conds, "\n  AND "))
	}
	if len(q.GroupBy) > 0 {
		var g []string
		for _, c := range q.GroupBy {
			g = append(g, c.String())
		}
		b.WriteString("\nGROUP BY ")
		b.WriteString(strings.Join(g, ", "))
	}
	b.WriteString(";")
	return b.String()
}

// Fingerprint is the query's 64-bit structural hash: name, tables in FROM
// order, each alias's filter tree in that order (Filters is a map; FROM order
// is the only order it has), joins, output, aggregates and GROUP BY. The name
// is part of the identity — fault draws and trace roots are keyed on it, so
// two equal shapes under different names are different queries. ok is false
// when a filter holds a predicate type expr cannot hash. A fingerprint
// nominates; Equal decides.
func (q *Query) Fingerprint() (_ uint64, ok bool) {
	f := expr.NewFingerprint().Str(q.Name).Word(uint64(len(q.Tables))).Word(uint64(len(q.Filters)))
	for _, t := range q.Tables {
		f = f.Str(t.Alias).Str(t.Table)
		p, has := q.Filters[t.Alias]
		if f = f.Bool(has); !has {
			continue
		}
		if f, ok = f.Pred(p); !ok {
			return 0, false
		}
	}
	f = f.Word(uint64(len(q.Joins)))
	for _, j := range q.Joins {
		f = f.Str(j.LeftAlias).Str(j.LeftCol).Str(j.RightAlias).Str(j.RightCol)
	}
	f = fingerprintCols(f, q.Output)
	f = f.Word(uint64(len(q.Aggregates)))
	for _, a := range q.Aggregates {
		f = f.Word(uint64(a.Func)).Str(a.Arg.Alias).Str(a.Arg.Col).Bool(a.Star).Str(a.As)
	}
	return uint64(fingerprintCols(f, q.GroupBy)), true
}

func fingerprintCols(f expr.Fingerprint, cols []ColRef) expr.Fingerprint {
	f = f.Word(uint64(len(cols)))
	for _, c := range cols {
		f = f.Str(c.Alias).Str(c.Col)
	}
	return f
}

// Equal reports whether o is structurally the same query, field by field over
// everything Fingerprint covers. Filters are compared in FROM order and by
// count, so a filter on an alias missing from FROM cannot hide behind an
// otherwise equal query; filter trees compare by structure (expr.Equal),
// never by rendering.
func (q *Query) Equal(o *Query) bool {
	if q.Name != o.Name || len(q.Filters) != len(o.Filters) ||
		!slices.Equal(q.Tables, o.Tables) || !slices.Equal(q.Joins, o.Joins) ||
		!slices.Equal(q.Output, o.Output) || !slices.Equal(q.Aggregates, o.Aggregates) ||
		!slices.Equal(q.GroupBy, o.GroupBy) {
		return false
	}
	for _, t := range q.Tables {
		p, has := q.Filters[t.Alias]
		op, ohas := o.Filters[t.Alias]
		if has != ohas || has && !expr.Equal(p, op) {
			return false
		}
	}
	return true
}
