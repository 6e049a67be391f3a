// Package exec implements the physical execution layer shared by the host
// engine and the on-device NDP engine: access paths, the left-deep join
// pipeline with BNL / BNLI / NLJ / GHJ algorithms, grouping and aggregation.
// Operators execute for real over real records; every primitive (flash read,
// predicate evaluation, key comparison, buffer copy) charges virtual time to
// the engine's timeline at the engine's rate table, so identical operator
// code yields host-priced or device-priced executions.
package exec

import (
	"fmt"
	"slices"
	"strings"

	"hybridndp/internal/expr"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// JoinType selects the join algorithm (paper §2.1: nKV supports NLJ, BNLJ,
// Grace hash join, and BNLI using primary/secondary indices).
type JoinType int

// Join algorithms.
const (
	BNL  JoinType = iota // block nested loop, hash table in the join buffer
	BNLI                 // block nested loop over an index (PK or secondary)
	NLJ                  // naive nested loop
	GHJ                  // grace hash join
)

func (t JoinType) String() string {
	switch t {
	case BNL:
		return "BNL"
	case BNLI:
		return "BNLI"
	case NLJ:
		return "NLJ"
	case GHJ:
		return "GHJ"
	}
	return fmt.Sprintf("JoinType(%d)", int(t))
}

// AccessPath describes how one base table is read.
type AccessPath struct {
	Ref    query.TableRef
	Filter expr.Pred // local predicate, may be nil
	Proj   []string  // columns needed upstream (early projection set)

	// Equality access over a secondary index chosen for the filter.
	UseFilterIndex bool
	FilterIndex    string
	FilterValue    table.Value

	// Optimizer estimates.
	EstRows float64 // rows surviving the filter
	EstSel  float64 // filter selectivity
}

func (a AccessPath) String() string {
	s := a.Ref.String()
	if a.UseFilterIndex {
		s += " via idx " + a.FilterIndex
	}
	if a.Filter != nil {
		s += " σ(" + a.Filter.String() + ")"
	}
	return s
}

// BoundCond is a join condition resolved against the tuple shape: position
// LeftPos in the accumulated tuple joins column LeftCol with RightCol of the
// incoming table. LeftColIdx/RightColIdx carry the plan-time-resolved column
// indices so the per-tuple path never resolves names; StartPipeline verifies
// them against the schemas (index 0 is a valid column, so a zero value alone
// cannot distinguish "unresolved" from "column 0") and re-resolves when a
// hand-built plan left them unset.
type BoundCond struct {
	LeftPos     int
	LeftCol     string
	RightCol    string
	LeftColIdx  int
	RightColIdx int
}

// JoinStep joins the accumulated tuple stream with one more base table.
type JoinStep struct {
	Right AccessPath
	Conds []BoundCond
	Type  JoinType

	// BNLI access choice on the right side.
	RightIndexIsPK bool   // join column is the right table's primary key
	RightIndex     string // secondary index name when not PK

	EstRows float64 // estimated rows after this join
}

func (s JoinStep) String() string {
	conds := make([]string, len(s.Conds))
	for i, c := range s.Conds {
		conds[i] = fmt.Sprintf("t%d.%s=%s", c.LeftPos, c.LeftCol, c.RightCol)
	}
	return fmt.Sprintf("%s ⋈ %s on %s", s.Type, s.Right, strings.Join(conds, ","))
}

// Plan is a left-deep physical plan: a driving access path plus join steps,
// topped by optional grouping/aggregation. Splitting the plan at position k
// (paper §3.3) sends Driving plus Steps[:k] to the device and keeps
// Steps[k:] plus the top on the host.
type Plan struct {
	Query      *query.Query
	Driving    AccessPath
	Steps      []JoinStep
	Aggregates []query.Aggregate
	Output     []query.ColRef
	GroupBy    []query.ColRef

	// EstTotalRows is the optimizer's final cardinality estimate.
	EstTotalRows float64
}

// NumTables reports the number of base tables in the plan.
func (p *Plan) NumTables() int { return 1 + len(p.Steps) }

// Clone returns a copy of the plan that shares nothing a caller may edit: its
// own steps, each with its own conditions. Plans handed out by the optimizer
// are shared between every caller that asks for the same query (the plan
// memo), so they are read-only; whoever wants a variant edits a clone.
func (p *Plan) Clone() *Plan {
	p2 := *p
	p2.Steps = slices.Clone(p.Steps)
	for i := range p2.Steps {
		p2.Steps[i].Conds = slices.Clone(p2.Steps[i].Conds)
	}
	return &p2
}

// WithBufferedJoins returns a copy of the plan whose index joins (BNLI) are
// coerced to buffered joins (BNL). H0 executions need it: the host joins
// device-shipped leaf rows, and an index join against the base table would
// discard the offloaded selection.
func (p *Plan) WithBufferedJoins() *Plan {
	p2 := p.Clone()
	for i := range p2.Steps {
		if p2.Steps[i].Type == BNLI {
			p2.Steps[i].Type = BNL
		}
	}
	return p2
}

// Aliases lists the table aliases in join order (the tuple shape).
func (p *Plan) Aliases() []string {
	out := []string{p.Driving.Ref.Alias}
	for _, s := range p.Steps {
		out = append(out, s.Right.Ref.Alias)
	}
	return out
}

func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan(%s): %s", p.Query.Name, p.Driving)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "\n  %s", s.String())
	}
	if len(p.Aggregates) > 0 || len(p.GroupBy) > 0 {
		fmt.Fprintf(&b, "\n  γ(")
		for i, a := range p.Aggregates {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Shape maps tuple positions to aliases and schemas.
type Shape struct {
	Aliases []string
	Schemas []*table.Schema
	pos     map[string]int
}

// NewShape builds a shape for the given aliases/schemas.
func NewShape(aliases []string, schemas []*table.Schema) *Shape {
	s := &Shape{Aliases: aliases, Schemas: schemas, pos: make(map[string]int, len(aliases))}
	for i, a := range aliases {
		s.pos[a] = i
	}
	return s
}

// Pos resolves an alias to its tuple position, or -1.
func (s *Shape) Pos(alias string) int {
	if i, ok := s.pos[alias]; ok {
		return i
	}
	return -1
}

// Extend returns a new shape with one more table appended.
func (s *Shape) Extend(alias string, schema *table.Schema) *Shape {
	return NewShape(append(append([]string(nil), s.Aliases...), alias),
		append(append([]*table.Schema(nil), s.Schemas...), schema))
}

// Tuple is one row of a join pipeline: the raw record of each base table in
// shape order. Joins extend tuples by appending the matched right-side row.
type Tuple [][]byte

// Record returns the decoded view of position i under shape sh.
func (t Tuple) Record(sh *Shape, i int) table.Record {
	return table.Record{Schema: sh.Schemas[i], Data: t[i]}
}

// Col resolves an aliased column against the tuple.
func (t Tuple) Col(sh *Shape, alias, col string) table.Value {
	i := sh.Pos(alias)
	if i < 0 || t[i] == nil {
		return table.NullVal()
	}
	return table.Record{Schema: sh.Schemas[i], Data: t[i]}.GetByName(col)
}
