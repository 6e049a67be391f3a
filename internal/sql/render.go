package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hybridndp/internal/expr"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// Render emits SQL text for q that Parse compiles back to a structurally
// identical query.Query (same predicate nesting, same join and projection
// order). This is the inverse the serving layer relies on: sessions ship SQL
// over the wire, and the plan cache keys on the canonical text, so the
// rendered form must preserve every bit of structure the optimizer sees. It
// is also the one display form: the commands and examples print queries
// through it. Render fails loudly on anything that cannot round-trip: NULL
// comparison literals, expr.Not, aggregates without an explicit alias, or
// identifiers that collide with keywords.
//
// Shape contract with the parser:
//   - every column is alias-qualified, since predicates store bare columns;
//   - each alias contributes exactly one top-level WHERE conjunct — atoms go
//     bare, And/Or trees go inside one parenthesized group — because the
//     parser merges repeated same-alias conjuncts pairwise (attachFilter)
//     which would re-associate a flat And;
//   - filters render in q.Tables order, then joins in q.Joins order.
func Render(q *query.Query) (string, error) {
	var b strings.Builder
	b.WriteString("SELECT ")
	var sel []string
	for _, a := range q.Aggregates {
		s, err := renderAgg(a)
		if err != nil {
			return "", err
		}
		sel = append(sel, s)
	}
	for _, c := range q.Output {
		s, err := renderColRef(c)
		if err != nil {
			return "", err
		}
		sel = append(sel, s)
	}
	if len(sel) == 0 {
		sel = []string{"*"}
	}
	b.WriteString(strings.Join(sel, ", "))

	b.WriteString(" FROM ")
	tabs := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		if err := checkIdent(t.Table); err != nil {
			return "", err
		}
		if err := checkIdent(t.Alias); err != nil {
			return "", err
		}
		if slices.ContainsFunc(q.Tables[:i], func(r query.TableRef) bool { return r.Alias == t.Alias }) {
			// Its filter would render once per reference, and the count below
			// would take the extra for a filter it never rendered.
			return "", fmt.Errorf("sql: query %s uses alias %q twice", q.Name, t.Alias)
		}
		tabs[i] = t.Table + " AS " + t.Alias
	}
	b.WriteString(strings.Join(tabs, ", "))

	var conds []string
	filtered := 0
	for _, t := range q.Tables {
		p, ok := q.Filters[t.Alias]
		if !ok {
			continue
		}
		filtered++
		s, err := renderFilter(t.Alias, p)
		if err != nil {
			return "", err
		}
		conds = append(conds, s)
	}
	if filtered != len(q.Filters) {
		return "", fmt.Errorf("sql: query %s has filters on aliases missing from FROM", q.Name)
	}
	for _, j := range q.Joins {
		for _, id := range []string{j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol} {
			if err := checkIdent(id); err != nil {
				return "", err
			}
		}
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}

	if len(q.GroupBy) > 0 {
		g := make([]string, len(q.GroupBy))
		for i, c := range q.GroupBy {
			s, err := renderColRef(c)
			if err != nil {
				return "", err
			}
			g[i] = s
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(g, ", "))
	}
	b.WriteString(";")
	return b.String(), nil
}

func renderAgg(a query.Aggregate) (string, error) {
	if a.As == "" {
		return "", fmt.Errorf("sql: aggregate %s needs an explicit alias to round-trip", a)
	}
	// The parser names an unaliased aggregate after its function; rendering
	// that default back as `AS min` would collide with the keyword, so omit
	// the clause and let the parser re-derive it.
	defaultAs := a.As == strings.ToLower(a.Func.String())
	if !defaultAs {
		if err := checkIdent(a.As); err != nil {
			return "", err
		}
	}
	var arg string
	if a.Star {
		if a.Func != query.Count {
			return "", fmt.Errorf("sql: %s(*) is only valid for COUNT", a.Func)
		}
		arg = "*"
	} else {
		s, err := renderColRef(a.Arg)
		if err != nil {
			return "", err
		}
		arg = s
	}
	if defaultAs {
		return fmt.Sprintf("%s(%s)", a.Func, arg), nil
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Func, arg, a.As), nil
}

func renderColRef(c query.ColRef) (string, error) {
	if err := checkIdent(c.Alias); err != nil {
		return "", err
	}
	if err := checkIdent(c.Col); err != nil {
		return "", err
	}
	return c.Alias + "." + c.Col, nil
}

// renderFilter emits one alias's predicate as a single top-level conjunct.
func renderFilter(alias string, p expr.Pred) (string, error) {
	switch p.(type) {
	case expr.And, expr.Or:
		inner, err := renderBool(alias, p)
		if err != nil {
			return "", err
		}
		return "(" + inner + ")", nil
	default:
		return renderAtom(alias, p)
	}
}

// renderBool renders an And/Or node without its own parentheses (the caller
// supplies them); nested combinators are parenthesized so the parser rebuilds
// the exact tree.
func renderBool(alias string, p expr.Pred) (string, error) {
	var preds []expr.Pred
	var sep string
	switch t := p.(type) {
	case expr.And:
		preds, sep = t.Preds, " AND "
	case expr.Or:
		preds, sep = t.Preds, " OR "
	default:
		return renderAtom(alias, p)
	}
	if len(preds) < 2 {
		return "", fmt.Errorf("sql: boolean combinator with %d operand(s) cannot round-trip", len(preds))
	}
	parts := make([]string, len(preds))
	for i, sub := range preds {
		var err error
		switch sub.(type) {
		case expr.And, expr.Or:
			inner, e := renderBool(alias, sub)
			if e != nil {
				return "", e
			}
			parts[i] = "(" + inner + ")"
		default:
			parts[i], err = renderAtom(alias, sub)
			if err != nil {
				return "", err
			}
		}
	}
	return strings.Join(parts, sep), nil
}

func renderAtom(alias string, p expr.Pred) (string, error) {
	col := func(c string) (string, error) {
		if err := checkIdent(alias); err != nil {
			return "", err
		}
		if err := checkIdent(c); err != nil {
			return "", err
		}
		return alias + "." + c, nil
	}
	switch t := p.(type) {
	case expr.Cmp:
		c, err := col(t.Col)
		if err != nil {
			return "", err
		}
		v, err := renderValue(t.Val)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s %s", c, t.Op, v), nil
	case expr.Between:
		c, err := col(t.Col)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s BETWEEN %d AND %d", c, t.Lo, t.Hi), nil
	case expr.In:
		c, err := col(t.Col)
		if err != nil {
			return "", err
		}
		if len(t.Vals) == 0 {
			return "", fmt.Errorf("sql: empty IN list on %s cannot round-trip", c)
		}
		vals := make([]string, len(t.Vals))
		for i, v := range t.Vals {
			s, err := renderValue(v)
			if err != nil {
				return "", err
			}
			vals[i] = s
		}
		return fmt.Sprintf("%s IN (%s)", c, strings.Join(vals, ", ")), nil
	case expr.Like:
		c, err := col(t.Col)
		if err != nil {
			return "", err
		}
		op := "LIKE"
		if t.Not {
			op = "NOT LIKE"
		}
		return fmt.Sprintf("%s %s %s", c, op, quoteStr(t.Pattern)), nil
	case expr.IsNull:
		c, err := col(t.Col)
		if err != nil {
			return "", err
		}
		if t.Not {
			return c + " IS NOT NULL", nil
		}
		return c + " IS NULL", nil
	default:
		return "", fmt.Errorf("sql: cannot render %T predicates", p)
	}
}

func renderValue(v table.Value) (string, error) {
	if v.Null {
		return "", fmt.Errorf("sql: NULL comparison literals cannot round-trip; use IS NULL")
	}
	if v.IsI {
		return strconv.FormatInt(int64(v.Int), 10), nil
	}
	return quoteStr(v.Str), nil
}

func quoteStr(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// checkIdent rejects names the lexer would not hand back as a single
// identifier token (keyword collisions, empty names, punctuation).
func checkIdent(s string) error {
	if s == "" {
		return fmt.Errorf("sql: empty identifier cannot round-trip")
	}
	if _, ok := keyword(s); ok {
		return fmt.Errorf("sql: identifier %q collides with a keyword", s)
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) || i > 0 && !isIdentPart(r) {
			return fmt.Errorf("sql: identifier %q is not lexable", s)
		}
	}
	return nil
}
