// Package expr implements the predicate language of the reproduced workload:
// comparisons, BETWEEN, IN, SQL LIKE, IS [NOT] NULL and boolean combinators,
// evaluated over fixed-width records. Predicates report their term count so
// the cost model can price per-record evaluation work (usr_rec × terms).
package expr

import (
	"fmt"
	"strings"

	"hybridndp/internal/table"
)

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Pred is a predicate over a single table's record.
type Pred interface {
	// Eval reports whether the record matches. NULL comparisons are false
	// (SQL three-valued logic collapsed to boolean, sufficient for JOB).
	Eval(r table.Record) bool
	// Terms counts the primitive comparison terms, the cost model's unit.
	Terms() int
	// Columns lists referenced column names.
	Columns() []string
	String() string
}

// Cmp compares a column with a constant.
type Cmp struct {
	Col string
	Op  CmpOp
	Val table.Value
}

// Eval implements Pred.
func (p Cmp) Eval(r table.Record) bool {
	v := r.GetByName(p.Col)
	if v.Null || p.Val.Null {
		return false
	}
	var c int
	switch {
	case v.IsI && p.Val.IsI:
		switch {
		case v.Int < p.Val.Int:
			c = -1
		case v.Int > p.Val.Int:
			c = 1
		}
	case !v.IsI && !p.Val.IsI:
		c = strings.Compare(v.Str, p.Val.Str)
	default:
		return false
	}
	switch p.Op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// Terms implements Pred.
func (p Cmp) Terms() int { return 1 }

// Columns implements Pred.
func (p Cmp) Columns() []string { return []string{p.Col} }

func (p Cmp) String() string { return fmt.Sprintf("%s %s %s", p.Col, p.Op, quote(p.Val)) }

func quote(v table.Value) string {
	if v.Null {
		return "NULL"
	}
	if v.IsI {
		return fmt.Sprint(v.Int)
	}
	return "'" + v.Str + "'"
}

// Between checks lo ≤ col ≤ hi (both integer bounds).
type Between struct {
	Col    string
	Lo, Hi int32
}

// Eval implements Pred.
func (p Between) Eval(r table.Record) bool {
	v := r.GetByName(p.Col)
	return !v.Null && v.IsI && v.Int >= p.Lo && v.Int <= p.Hi
}

// Terms implements Pred.
func (p Between) Terms() int { return 2 }

// Columns implements Pred.
func (p Between) Columns() []string { return []string{p.Col} }

func (p Between) String() string { return fmt.Sprintf("%s BETWEEN %d AND %d", p.Col, p.Lo, p.Hi) }

// In checks membership in a constant list.
type In struct {
	Col  string
	Vals []table.Value
}

// Eval implements Pred.
func (p In) Eval(r table.Record) bool {
	v := r.GetByName(p.Col)
	if v.Null {
		return false
	}
	for _, c := range p.Vals {
		if v.IsI == c.IsI && !c.Null {
			if v.IsI && v.Int == c.Int {
				return true
			}
			if !v.IsI && v.Str == c.Str {
				return true
			}
		}
	}
	return false
}

// Terms implements Pred.
func (p In) Terms() int { return len(p.Vals) }

// Columns implements Pred.
func (p In) Columns() []string { return []string{p.Col} }

func (p In) String() string {
	parts := make([]string, len(p.Vals))
	for i, v := range p.Vals {
		parts[i] = quote(v)
	}
	return fmt.Sprintf("%s IN (%s)", p.Col, strings.Join(parts, ", "))
}

// Like implements SQL LIKE with % and _ wildcards; Not negates it.
type Like struct {
	Col     string
	Pattern string
	Not     bool
}

// Eval implements Pred.
func (p Like) Eval(r table.Record) bool {
	v := r.GetByName(p.Col)
	if v.Null || v.IsI {
		return false
	}
	m := likeMatch(p.Pattern, v.Str)
	if p.Not {
		return !m
	}
	return m
}

// Terms implements Pred.
func (p Like) Terms() int { return 2 } // pattern matching is pricier than a compare

// Columns implements Pred.
func (p Like) Columns() []string { return []string{p.Col} }

func (p Like) String() string {
	op := "LIKE"
	if p.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", p.Col, op, p.Pattern)
}

// likeMatch matches SQL LIKE patterns with a two-pointer greedy algorithm,
// over a decoded string (Like.Eval) or the trimmed column bytes (the compiled
// form of patterns with '_' or NUL). The wildcard is tested before the
// literal, so a '%' in the data is not taken for the pattern's.
func likeMatch[S string | []byte](pattern string, s S) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			mark = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// IsNull checks col IS NULL (or IS NOT NULL with Not).
type IsNull struct {
	Col string
	Not bool
}

// Eval implements Pred.
func (p IsNull) Eval(r table.Record) bool {
	null := r.GetByName(p.Col).Null
	if p.Not {
		return !null
	}
	return null
}

// Terms implements Pred.
func (p IsNull) Terms() int { return 1 }

// Columns implements Pred.
func (p IsNull) Columns() []string { return []string{p.Col} }

func (p IsNull) String() string {
	if p.Not {
		return p.Col + " IS NOT NULL"
	}
	return p.Col + " IS NULL"
}

// And is a conjunction.
type And struct{ Preds []Pred }

// Eval implements Pred.
func (p And) Eval(r table.Record) bool {
	for _, q := range p.Preds {
		if !q.Eval(r) {
			return false
		}
	}
	return true
}

// Terms implements Pred.
func (p And) Terms() int { return sumTerms(p.Preds) }

// Columns implements Pred.
func (p And) Columns() []string { return allColumns(p.Preds) }

func (p And) String() string { return joinPreds(p.Preds, " AND ") }

// Or is a disjunction.
type Or struct{ Preds []Pred }

// Eval implements Pred.
func (p Or) Eval(r table.Record) bool {
	for _, q := range p.Preds {
		if q.Eval(r) {
			return true
		}
	}
	return false
}

// Terms implements Pred.
func (p Or) Terms() int { return sumTerms(p.Preds) }

// Columns implements Pred.
func (p Or) Columns() []string { return allColumns(p.Preds) }

func (p Or) String() string { return "(" + joinPreds(p.Preds, " OR ") + ")" }

// Not negates a predicate.
type Not struct{ Pred Pred }

// Eval implements Pred.
func (p Not) Eval(r table.Record) bool { return !p.Pred.Eval(r) }

// Terms implements Pred.
func (p Not) Terms() int { return p.Pred.Terms() }

// Columns implements Pred.
func (p Not) Columns() []string { return p.Pred.Columns() }

func (p Not) String() string { return "NOT (" + p.Pred.String() + ")" }

func sumTerms(preds []Pred) int {
	n := 0
	for _, p := range preds {
		n += p.Terms()
	}
	return n
}

func allColumns(preds []Pred) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range preds {
		for _, c := range p.Columns() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func joinPreds(preds []Pred, sep string) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, sep)
}

// EqCol extracts the constant of a `col = const` shaped predicate within a
// conjunction, used for index-access-path selection.
func EqCol(p Pred, col string) (table.Value, bool) {
	switch q := p.(type) {
	case Cmp:
		if q.Op == Eq && q.Col == col {
			return q.Val, true
		}
	case And:
		for _, sub := range q.Preds {
			if v, ok := EqCol(sub, col); ok {
				return v, true
			}
		}
	}
	return table.Value{}, false
}
