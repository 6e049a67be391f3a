package exec

import (
	"hybridndp/internal/expr"
	"hybridndp/internal/table"
)

// Prepared is a plan's execution state resolved once against a catalog: the
// table at every tuple position with its projected width and its compiled
// local predicate (the driving path's, then every step's right side), the
// chain's shape, and every join step's bound conditions with verified column
// indices and its integer-key binding. Nothing in it depends on the engine or
// the run, so host, device and every fleet shard of every run of the plan
// share one, from any number of goroutines: nothing writes it once built, and
// a compiled predicate keeps no per-call state.
//
// Plan.Prepare attaches one to a plan before the plan is shared (the optimizer
// does, for every plan it hands out); StartPipeline builds a private one, with
// the same constructor, for a plan that carries none for the engine's catalog
// — a hand-built plan, a clone.
type Prepared struct {
	cat *table.Catalog
	// tabs[i] is the table at tuple position i.
	tabs   []*table.Table
	widths []int64           // projected bytes per tuple position
	preds  []*expr.BatchPred // compiled local predicate per position; nil = none
	terms  []int             // the predicate's term count, as Rates.Eval books it
	shapes []Shape           // shapes[k]: the shape after k join steps, a prefix of the chain's
	conds  [][]BoundCond     // per join step, with column indices verified against the schemas
	// intKeys[si] is step si's join key in the hash table's integer
	// representation; n == 0 leaves the step on encoded byte keys.
	intKeys []intKeys
	// buffered is the plan's H0 variant (WithBufferedJoins), prepared along
	// with it; nil when the plan has no index join or was not Prepared.
	buffered *Plan
}

// prepare resolves p against cat. The plan is only read: its conditions are
// copied before their column indices are verified (a hand-built plan may carry
// unresolved ones).
func prepare(cat *table.Catalog, p *Plan) (*Prepared, error) {
	n := p.NumTables()
	pr := &Prepared{cat: cat, tabs: make([]*table.Table, n), widths: make([]int64, n),
		preds: make([]*expr.BatchPred, n), terms: make([]int, n), shapes: make([]Shape, n),
		conds: make([][]BoundCond, len(p.Steps)), intKeys: make([]intKeys, len(p.Steps))}
	aliases := make([]string, n)
	schemas := make([]*table.Schema, n)
	for i := range n {
		ap := p.access(i)
		t, err := cat.Table(ap.Ref.Table)
		if err != nil {
			return nil, err
		}
		pr.tabs[i], aliases[i], schemas[i] = t, ap.Ref.Alias, t.Schema
		pr.widths[i] = t.Schema.ProjWidth(ap.Proj)
		if ap.Filter != nil {
			pr.preds[i], pr.terms[i] = expr.Compile(t.Schema, ap.Filter), ap.Filter.Terms()
		}
	}
	chain := NewShape(aliases, schemas)
	for k := range pr.shapes {
		pr.shapes[k] = chain.Prefix(k + 1)
	}
	for si, s := range p.Steps {
		cs := append([]BoundCond(nil), s.Conds...)
		leftSh, right := &pr.shapes[si], schemas[si+1]
		for i := range cs {
			c := &cs[i]
			if c.LeftPos >= 0 && c.LeftPos < len(leftSh.Schemas) {
				ls := leftSh.Schemas[c.LeftPos]
				if c.LeftColIdx < 0 || c.LeftColIdx >= len(ls.Columns) || ls.Columns[c.LeftColIdx].Name != c.LeftCol {
					c.LeftColIdx = ls.ColumnIndex(c.LeftCol)
				}
			}
			if c.RightColIdx < 0 || c.RightColIdx >= len(right.Columns) || right.Columns[c.RightColIdx].Name != c.RightCol {
				c.RightColIdx = right.ColumnIndex(c.RightCol)
			}
		}
		pr.conds[si] = cs
		pr.intKeys[si] = bindIntKeys(leftSh, right, cs)
	}
	return pr, nil
}
