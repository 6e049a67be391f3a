// Package exec implements the physical execution layer shared by the host
// engine and the on-device NDP engine: access paths, the left-deep join
// pipeline with BNL and BNLI joins, grouping and aggregation.
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

// JoinType selects the join algorithm: the two the paper's experiments
// compare (Exp 4/5), out of the set nKV supports (§2.1).
type JoinType int

// Join algorithms.
const (
	BNL  JoinType = iota // block nested loop, hash table in the join buffer
	BNLI                 // block nested loop over an index (PK or secondary)
)

func (t JoinType) String() string {
	switch t {
	case BNL:
		return "BNL"
	case BNLI:
		return "BNLI"
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
// indices so the per-tuple path never resolves names; Plan.Prepare verifies
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

// Indexed returns the step as an index join (BNLI) into rt, its right table:
// the first condition on rt's primary key — else the last one on a secondary
// index — moves to the front and the step probes through that key. ok is
// false, and the step comes back unchanged, when no condition is indexed.
func (s JoinStep) Indexed(rt *table.Table) (JoinStep, bool) {
	at, pk, name := -1, false, ""
	for i, c := range s.Conds {
		if c.RightCol == rt.Schema.PrimaryKey {
			at, pk, name = i, true, ""
			break
		}
		if si, ok := rt.SecondaryIndexFor(c.RightCol); ok {
			at, name = i, si.Name
		}
	}
	if at < 0 {
		return s, false
	}
	s.Type, s.RightIndexIsPK, s.RightIndex = BNLI, pk, name
	if at > 0 {
		conds := make([]BoundCond, 0, len(s.Conds))
		conds = append(conds, s.Conds[at])
		conds = append(conds, s.Conds[:at]...)
		s.Conds = append(conds, s.Conds[at+1:]...)
	}
	return s, true
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

	// prepared is the plan's execution state, attached by Prepare.
	prepared *Prepared
}

// NumTables reports the number of base tables in the plan.
func (p *Plan) NumTables() int { return 1 + len(p.Steps) }

// access returns the access path at tuple position i: the driving path, then
// join step i-1's right side.
func (p *Plan) access(i int) *AccessPath {
	if i == 0 {
		return &p.Driving
	}
	return &p.Steps[i-1].Right
}

// Clone returns a copy of the plan that shares nothing a caller may edit: its
// own steps, each with its own conditions. Plans handed out by the optimizer
// are shared between every caller that asks for the same query (the plan
// memo), so they are read-only; whoever wants a variant edits a clone. A
// clone carries no prepared state: an edit (JoinStep.Indexed reorders a
// step's conditions) would leave it stale.
func (p *Plan) Clone() *Plan {
	p2 := *p
	p2.prepared = nil
	p2.Steps = slices.Clone(p.Steps)
	for i := range p2.Steps {
		p2.Steps[i].Conds = slices.Clone(p2.Steps[i].Conds)
	}
	return &p2
}

// WithBufferedJoins returns the plan with its index joins (BNLI) coerced to
// buffered joins (BNL). H0 executions need it: the host joins device-shipped
// leaf rows, and an index join against the base table would discard the
// offloaded selection. A prepared plan hands out the variant Prepare built
// with it (itself, when it has no index join), shared and read-only like the
// plan; any other plan gets a fresh copy.
func (p *Plan) WithBufferedJoins() *Plan {
	if p.prepared != nil {
		if p.prepared.buffered != nil {
			return p.prepared.buffered
		}
		return p
	}
	p2 := p.Clone()
	bufferJoins(p2.Steps)
	return p2
}

// bufferJoins coerces every index join (BNLI) among steps to a buffered join.
func bufferJoins(steps []JoinStep) {
	for i := range steps {
		if steps[i].Type == BNLI {
			steps[i].Type = BNL
		}
	}
}

// Prepare resolves the plan against cat once (Prepared) and attaches the
// result, together with its prepared H0 variant when the plan has an index
// join, so that every StartPipeline over cat — every engine of every run —
// shares it. It writes the plan: call it before the plan is shared, as the
// optimizer does before it memoizes one.
func (p *Plan) Prepare(cat *table.Catalog) error {
	pr, err := prepare(cat, p)
	if err != nil {
		return err
	}
	if slices.ContainsFunc(p.Steps, func(s JoinStep) bool { return s.Type == BNLI }) {
		// Own steps to retype; the conditions stay shared, read-only like both
		// plans (a Clone of either copies them).
		b := *p
		b.Steps = slices.Clone(p.Steps)
		bufferJoins(b.Steps)
		// The join type changes nothing prepare resolves: the variant shares
		// every table, shape, condition, key binding and predicate.
		bpr := *pr
		b.prepared = &bpr
		pr.buffered = &b
	}
	p.prepared = pr
	return nil
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

// Shape maps tuple positions to aliases and schemas. The shapes along one join
// chain are prefixes of the whole chain's: they share its slices and its one
// alias→position map, which also holds the aliases of later positions.
type Shape struct {
	Aliases []string
	Schemas []*table.Schema
	pos     map[string]int
}

// NewShape builds the shape of a whole chain, whose aliases are distinct (as
// query.Validate requires).
func NewShape(aliases []string, schemas []*table.Schema) *Shape {
	s := &Shape{Aliases: aliases, Schemas: schemas, pos: make(map[string]int, len(aliases))}
	for i, a := range aliases {
		s.pos[a] = i
	}
	return s
}

// Prefix returns the shape of the chain's first n positions.
func (s *Shape) Prefix(n int) Shape {
	return Shape{Aliases: s.Aliases[:n:n], Schemas: s.Schemas[:n:n], pos: s.pos}
}

// Pos resolves an alias to its tuple position, or -1.
func (s *Shape) Pos(alias string) int {
	if i, ok := s.pos[alias]; ok && i < len(s.Aliases) {
		return i
	}
	return -1
}

// Tuple is one row of a join pipeline: the raw record of each base table in
// shape order. Joins extend tuples by appending the matched right-side row.
type Tuple [][]byte

// Record returns the decoded view of position i under shape sh.
func (t Tuple) Record(sh *Shape, i int) table.Record {
	return table.Record{Schema: sh.Schemas[i], Data: t[i]}
}
