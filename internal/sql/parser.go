package sql

import (
	"fmt"
	"strconv"
	"strings"

	"hybridndp/internal/expr"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// Parse compiles one SELECT statement of the JOB dialect into a query.Query.
// Supported grammar (keywords case-insensitive):
//
//	SELECT select_item {, select_item}
//	FROM table [AS] alias {, table [AS] alias}
//	[WHERE condition {AND condition}]
//	[GROUP BY column {, column}] [;]
//
//	select_item := * | alias.column | AGG(alias.column) | COUNT(*)
//	condition   := atom | ( or_expr )
//	or_expr     := and_expr {OR and_expr}        (single-table)
//	and_expr    := primary {AND primary}
//	primary     := atom | ( or_expr )
//	atom        := alias.col = alias.col          (join condition)
//	             | alias.col op literal           (op: = <> != < <= > >=)
//	             | alias.col [NOT] LIKE 'pattern'
//	             | alias.col IS [NOT] NULL
//	             | alias.col BETWEEN n AND n
//	             | alias.col IN ( literal {, literal} )
//
// WHERE is a conjunction at the top level, exactly the JOB shape; inside
// parentheses, arbitrarily nested AND/OR groups are allowed as long as every
// atom references the same table alias (AND binds tighter than OR). Join
// conditions may only appear as bare top-level conjuncts. Parenthesized
// groups preserve their boolean structure exactly — parse(Render(q)) rebuilds
// the same expr tree — which the serving plan cache relies on.
func Parse(input string) (*query.Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("sql: expected %s, found %s", kw, t)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("sql: expected %q, found %s", sym, t)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.i++
		return true
	}
	return false
}

// colRef parses alias.column.
func (p *parser) colRef() (query.ColRef, error) {
	a := p.next()
	if a.kind != tokIdent {
		return query.ColRef{}, fmt.Errorf("sql: expected alias, found %s", a)
	}
	if err := p.expectSymbol("."); err != nil {
		return query.ColRef{}, err
	}
	c := p.next()
	if c.kind != tokIdent {
		return query.ColRef{}, fmt.Errorf("sql: expected column after %s., found %s", a.text, c)
	}
	return query.ColRef{Alias: a.text, Col: c.text}, nil
}

var aggFuncs = map[string]query.AggFunc{
	"MIN": query.Min, "MAX": query.Max, "SUM": query.Sum,
	"AVG": query.Avg, "COUNT": query.Count,
}

func (p *parser) parseSelect() (*query.Query, error) {
	q := &query.Query{Filters: map[string]expr.Pred{}}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.acceptSymbol("*") {
		// SELECT *: no output columns, no aggregates.
	} else {
		for {
			t := p.cur()
			if t.kind == tokKeyword {
				if fn, ok := aggFuncs[t.text]; ok {
					p.i++
					if err := p.expectSymbol("("); err != nil {
						return nil, err
					}
					agg := query.Aggregate{Func: fn}
					if p.acceptSymbol("*") {
						if fn != query.Count {
							return nil, fmt.Errorf("sql: %s(*) is only valid for COUNT", t.text)
						}
						agg.Star = true
					} else {
						cr, err := p.colRef()
						if err != nil {
							return nil, err
						}
						agg.Arg = cr
					}
					if err := p.expectSymbol(")"); err != nil {
						return nil, err
					}
					agg.As = p.optionalAlias(strings.ToLower(t.text))
					q.Aggregates = append(q.Aggregates, agg)
				} else {
					return nil, fmt.Errorf("sql: unexpected %s in select list", t)
				}
			} else {
				cr, err := p.colRef()
				if err != nil {
					return nil, err
				}
				p.optionalAlias("")
				q.Output = append(q.Output, cr)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("sql: expected table name, found %s", t)
		}
		ref := query.TableRef{Table: t.text, Alias: t.text}
		p.acceptKeyword("AS")
		if p.cur().kind == tokIdent {
			ref.Alias = p.next().text
		}
		q.Tables = append(q.Tables, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		for {
			if err := p.parseCondition(q); err != nil {
				return nil, err
			}
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.colRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, cr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	p.acceptSymbol(";")
	if t := p.cur(); t.kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input starting at %s", t)
	}
	q.Name = "adhoc"
	return q, nil
}

// optionalAlias consumes [AS] ident and returns it (or def).
func (p *parser) optionalAlias(def string) string {
	if p.acceptKeyword("AS") {
		if p.cur().kind == tokIdent {
			return p.next().text
		}
		return def
	}
	if p.cur().kind == tokIdent {
		// Bare alias only when followed by , FROM-keyword boundary; to keep
		// the grammar predictable we require AS for aliases.
		return def
	}
	return def
}

// parseCondition parses one top-level conjunct and attaches it to the query
// as either a join condition or a single-table filter.
func (p *parser) parseCondition(q *query.Query) error {
	if p.acceptSymbol("(") {
		// Parenthesized boolean group over one table.
		pred, alias, err := p.parseOrExpr()
		if err != nil {
			return err
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
		p.attachFilter(q, alias, pred)
		return nil
	}
	return p.parseSimpleCondition(q)
}

// parseOrExpr parses and_expr {OR and_expr} where every atom references the
// same alias. Two or more operands build an expr.Or; a single operand passes
// through unchanged, so the boolean tree mirrors the source parenthesization.
func (p *parser) parseOrExpr() (expr.Pred, string, error) {
	pred, alias, err := p.parseAndExpr()
	if err != nil {
		return nil, "", err
	}
	var preds []expr.Pred // only once there is a second operand
	for p.acceptKeyword("OR") {
		next, a, err := p.parseAndExpr()
		if err != nil {
			return nil, "", err
		}
		if a != alias {
			return nil, "", fmt.Errorf("sql: OR group mixes tables %s and %s", alias, a)
		}
		if preds == nil {
			preds = append(preds, pred)
		}
		preds = append(preds, next)
	}
	if preds == nil {
		return pred, alias, nil
	}
	return expr.Or{Preds: preds}, alias, nil
}

// parseAndExpr parses primary {AND primary} over one alias.
func (p *parser) parseAndExpr() (expr.Pred, string, error) {
	pred, alias, err := p.parsePrimary()
	if err != nil {
		return nil, "", err
	}
	var preds []expr.Pred // only once there is a second operand
	for p.acceptKeyword("AND") {
		next, a, err := p.parsePrimary()
		if err != nil {
			return nil, "", err
		}
		if a != alias {
			return nil, "", fmt.Errorf("sql: AND group mixes tables %s and %s", alias, a)
		}
		if preds == nil {
			preds = append(preds, pred)
		}
		preds = append(preds, next)
	}
	if preds == nil {
		return pred, alias, nil
	}
	return expr.And{Preds: preds}, alias, nil
}

// parsePrimary parses a nested parenthesized group or a single atom.
func (p *parser) parsePrimary() (expr.Pred, string, error) {
	if p.acceptSymbol("(") {
		pred, alias, err := p.parseOrExpr()
		if err != nil {
			return nil, "", err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, "", err
		}
		return pred, alias, nil
	}
	pred, alias, isJoin, _, err := p.parseAtom()
	if err != nil {
		return nil, "", err
	}
	if isJoin {
		return nil, "", fmt.Errorf("sql: join conditions cannot appear inside boolean groups")
	}
	return pred, alias, nil
}

func (p *parser) parseSimpleCondition(q *query.Query) error {
	pred, alias, isJoin, jc, err := p.parseAtom()
	if err != nil {
		return err
	}
	if isJoin {
		q.Joins = append(q.Joins, jc)
		return nil
	}
	p.attachFilter(q, alias, pred)
	return nil
}

func (p *parser) attachFilter(q *query.Query, alias string, pred expr.Pred) {
	if old, ok := q.Filters[alias]; ok {
		q.Filters[alias] = expr.And{Preds: []expr.Pred{old, pred}}
		return
	}
	q.Filters[alias] = pred
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.Eq, "<>": expr.Ne, "!=": expr.Ne,
	"<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge,
}

// parseAtom parses one comparison/LIKE/IN/BETWEEN/IS NULL condition. It
// reports either a single-table predicate (with its alias) or a join
// condition.
func (p *parser) parseAtom() (expr.Pred, string, bool, query.JoinCond, error) {
	none := query.JoinCond{}
	left, err := p.colRef()
	if err != nil {
		return nil, "", false, none, err
	}
	t := p.next()
	op, isCmp := cmpOps[t.text]
	switch {
	case t.kind == tokSymbol && isCmp:
		rhs := p.cur()
		switch rhs.kind {
		case tokIdent:
			// alias.col op alias.col → join condition (only equality).
			right, err := p.colRef()
			if err != nil {
				return nil, "", false, none, err
			}
			if op != expr.Eq {
				return nil, "", false, none, fmt.Errorf("sql: only equality joins are supported, found %s", t)
			}
			return nil, "", true, query.JoinCond{
				LeftAlias: left.Alias, LeftCol: left.Col,
				RightAlias: right.Alias, RightCol: right.Col,
			}, nil
		case tokNumber:
			p.i++
			n, err := strconv.ParseInt(rhs.text, 10, 32)
			if err != nil {
				return nil, "", false, none, fmt.Errorf("sql: bad number %q", rhs.text)
			}
			return expr.Cmp{Col: left.Col, Op: op, Val: table.IntVal(int32(n))}, left.Alias, false, none, nil
		case tokString:
			p.i++
			return expr.Cmp{Col: left.Col, Op: op, Val: table.StrVal(rhs.text)}, left.Alias, false, none, nil
		default:
			return nil, "", false, none, fmt.Errorf("sql: expected literal or column after %s, found %s", t.text, rhs)
		}

	case t.kind == tokKeyword && t.text == "LIKE":
		s := p.next()
		if s.kind != tokString {
			return nil, "", false, none, fmt.Errorf("sql: LIKE needs a string pattern, found %s", s)
		}
		return expr.Like{Col: left.Col, Pattern: s.text}, left.Alias, false, none, nil

	case t.kind == tokKeyword && t.text == "NOT":
		if err := p.expectKeyword("LIKE"); err != nil {
			return nil, "", false, none, err
		}
		s := p.next()
		if s.kind != tokString {
			return nil, "", false, none, fmt.Errorf("sql: NOT LIKE needs a string pattern, found %s", s)
		}
		return expr.Like{Col: left.Col, Pattern: s.text, Not: true}, left.Alias, false, none, nil

	case t.kind == tokKeyword && t.text == "IS":
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, "", false, none, err
		}
		return expr.IsNull{Col: left.Col, Not: not}, left.Alias, false, none, nil

	case t.kind == tokKeyword && t.text == "BETWEEN":
		lo := p.next()
		if lo.kind != tokNumber {
			return nil, "", false, none, fmt.Errorf("sql: BETWEEN needs numeric bounds, found %s", lo)
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, "", false, none, err
		}
		hi := p.next()
		if hi.kind != tokNumber {
			return nil, "", false, none, fmt.Errorf("sql: BETWEEN needs numeric bounds, found %s", hi)
		}
		l, err1 := strconv.ParseInt(lo.text, 10, 32)
		h, err2 := strconv.ParseInt(hi.text, 10, 32)
		if err1 != nil || err2 != nil {
			return nil, "", false, none, fmt.Errorf("sql: bad BETWEEN bounds")
		}
		return expr.Between{Col: left.Col, Lo: int32(l), Hi: int32(h)}, left.Alias, false, none, nil

	case t.kind == tokKeyword && t.text == "IN":
		if err := p.expectSymbol("("); err != nil {
			return nil, "", false, none, err
		}
		var vals []table.Value
		for {
			v := p.next()
			switch v.kind {
			case tokString:
				vals = append(vals, table.StrVal(v.text))
			case tokNumber:
				n, err := strconv.ParseInt(v.text, 10, 32)
				if err != nil {
					return nil, "", false, none, fmt.Errorf("sql: bad number %q in IN list", v.text)
				}
				vals = append(vals, table.IntVal(int32(n)))
			default:
				return nil, "", false, none, fmt.Errorf("sql: expected literal in IN list, found %s", v)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, "", false, none, err
		}
		return expr.In{Col: left.Col, Vals: vals}, left.Alias, false, none, nil
	}
	return nil, "", false, none, fmt.Errorf("sql: unexpected %s after %s.%s", t, left.Alias, left.Col)
}
