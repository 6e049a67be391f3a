// Package optimizer turns logical queries into split physical plans: it
// chooses access paths (full scan vs secondary-index equality access), a
// greedy left-deep join order with per-step join-type selection (BNL vs
// BNLI, as nKV does during join-order calculation), and finally decides the
// execution strategy — host-only, full NDP, or a hybrid split Hk — using the
// hybridNDP cost model (paper §3).
package optimizer

import (
	"fmt"
	"math"
	"slices"

	"hybridndp/internal/cost"
	"hybridndp/internal/exec"
	"hybridndp/internal/expr"
	"hybridndp/internal/hw"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// Optimizer plans queries against a catalog and hardware model. It is safe
// for concurrent use; the plans it hands out are shared and read-only (see
// BuildPlan).
type Optimizer struct {
	Cat   *table.Catalog
	Model hw.Model
	Est   *cost.Estimator

	// NDPMounted mirrors the paper's precondition: the smart storage must be
	// mounted in NDP mode for offloading to be considered.
	NDPMounted bool
	// MinDeviceBytes is the offloading precondition on transfer volume: the
	// device-side tables must carry at least this much data so the NDP call
	// amortizes (paper: volume close to the max transfer per command).
	MinDeviceBytes int64

	memo planMemo
}

// New builds an optimizer.
func New(cat *table.Catalog, m hw.Model) *Optimizer {
	return &Optimizer{
		Cat:            cat,
		Model:          m,
		Est:            cost.NewEstimator(cat, m, cost.DefaultParams()),
		NDPMounted:     true,
		MinDeviceBytes: m.SharedBufferSlot,
	}
}

// indexEqThreshold is the match-fraction above which an equality index
// access stops paying off against a scan.
const indexEqThreshold = 0.05

// buildAccessPath chooses the access path for one table reference. A filter's
// selectivity is the share of the stats sample its compiled form keeps — the
// kernels the scan itself will run; sel is the selection-vector buffer the
// plan's tables share.
func buildAccessPath(q *query.Query, ref query.TableRef, t *table.Table, st *table.Stats, proj []string, sel *[]int32) exec.AccessPath {
	ap := exec.AccessPath{Ref: ref, Proj: proj}
	if p, ok := q.Filters[ref.Alias]; ok {
		ap.Filter = p
		rows := st.SampleRows()
		*sel = slices.Grow((*sel)[:0], len(rows))
		for i := range rows {
			*sel = append(*sel, int32(i))
		}
		ap.EstSel = st.SelectivityOfMatches(len(expr.Compile(t.Schema, p).Filter(rows, *sel)))
	} else {
		ap.EstSel = 1
	}
	ap.EstRows = float64(st.RowCount) * ap.EstSel

	// Secondary-index equality access when the filter pins an indexed
	// column and the estimated match fraction is small.
	if ap.Filter != nil {
		for _, si := range t.Schema.SecondaryIndexes {
			v, ok := expr.EqCol(ap.Filter, si.Column)
			if !ok {
				continue
			}
			eqSel := st.EqSelectivity(si.Column)
			if eqSel <= indexEqThreshold {
				ap.UseFilterIndex = true
				ap.FilterIndex = si.Name
				ap.FilterValue = v
				break
			}
		}
	}
	return ap
}

// BuildPlan computes the physical plan: access paths, greedy join order and
// join types (paper §3.2: the optimizer estimates the best access path per
// table, combines it with the subsequent table, and compares join orders).
//
// A plan is a function of the query's structure and its tables' statistics
// alone, so it is computed once per (query, statistics) and handed to every
// caller that asks again (the plan memo, DESIGN.md §10). The returned plan is
// therefore shared and read-only — edit a Plan.Clone — and its Query is the
// first equal query this optimizer saw, which the caller must not edit either.
func (o *Optimizer) BuildPlan(q *query.Query) (*exec.Plan, error) {
	fp, memoizable := q.Fingerprint()
	if memoizable {
		if e := o.memo.get(fp); e != nil && e.q.Equal(q) && e.current() {
			return e.plan, nil
		}
	}
	if err := q.Validate(o.Cat); err != nil {
		return nil, err
	}
	e := &memoEntry{q: q, tabs: make([]*table.Table, len(q.Tables)), stats: make([]*table.Stats, len(q.Tables))}
	for i, ref := range q.Tables {
		t, err := o.Cat.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		e.tabs[i], e.stats[i] = t, t.CollectStats()
	}
	var err error
	if e.plan, err = o.plan(q, e.tabs, e.stats); err != nil {
		return nil, err
	}
	if memoizable && e.current() {
		return o.memo.put(fp, e), nil
	}
	return e.plan, nil
}

// plan is BuildPlan below the memo. Everything per table is indexed by the
// table's position in FROM.
func (o *Optimizer) plan(q *query.Query, tabs []*table.Table, stats []*table.Stats) (*exec.Plan, error) {
	proj := q.ProjectedColumns()
	paths := make([]exec.AccessPath, len(q.Tables))
	sel := o.memo.swapSel(nil)
	for i, ref := range q.Tables {
		paths[i] = buildAccessPath(q, ref, tabs[i], stats[i], proj[i], &sel)
	}
	o.memo.swapSel(sel)

	plan := &exec.Plan{
		Query:      q,
		Aggregates: q.Aggregates,
		Output:     q.Output,
		GroupBy:    q.GroupBy,
	}

	if len(q.Tables) == 1 {
		plan.Driving = paths[0]
		plan.EstTotalRows = plan.Driving.EstRows
		return plan, nil
	}

	// Driving table: the cheapest estimated access (host side). Iterate in
	// query declaration order so tied scores break the same way on every run
	// — plans (and therefore simulated times) must be deterministic for a
	// given query.
	driving := 0
	best := math.Inf(1)
	for i, ap := range paths {
		nc, err := o.Est.AccessCost(ap, cost.Host)
		if err != nil {
			return nil, err
		}
		// Penalize large survivor sets: they multiply downstream join work.
		score := nc.Total() + ap.EstRows*100
		if score < best {
			best = score
			driving = i
		}
	}
	plan.Driving = paths[driving]

	// tuplePos[i] is table i's position in the accumulated tuple, -1 while it
	// is still to be joined; sides[k] are the table positions of join k.
	tuplePos := make([]int, len(q.Tables))
	for i := range tuplePos {
		tuplePos[i] = -1
	}
	tuplePos[driving] = 0
	sides := make([][2]int, len(q.Joins))
	for k, j := range q.Joins {
		sides[k] = [2]int{q.TablePos(j.LeftAlias), q.TablePos(j.RightAlias)}
	}
	rows := plan.Driving.EstRows
	plan.Steps = make([]exec.JoinStep, 0, len(q.Tables)-1)

	for len(plan.Steps) < len(q.Tables)-1 {
		var bestStep exec.JoinStep
		var bestOut, bestScore float64
		bestIdx := -1
		for i := range q.Tables { // declaration order: deterministic ties
			if tuplePos[i] >= 0 {
				continue
			}
			conds := boundConds(q, i, tabs, tuplePos, sides)
			if len(conds) == 0 {
				continue
			}
			step, nc, out, err := o.chooseJoin(paths[i], tabs[i], conds, rows)
			if err != nil {
				return nil, err
			}
			score := nc.Total() + out*100
			if bestIdx < 0 || score < bestScore {
				bestStep, bestOut, bestScore, bestIdx = step, out, score, i
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("optimizer: query %s has disconnected tables", q.Name)
		}
		bestStep.EstRows = bestOut
		plan.Steps = append(plan.Steps, bestStep)
		tuplePos[bestIdx] = len(plan.Steps)
		rows = bestOut
	}
	plan.EstTotalRows = rows
	return plan, nil
}

// boundConds resolves all join conditions linking table i to already-joined
// tables into tuple-position-bound conditions, with column indices resolved
// at plan time so the executor's per-tuple path never resolves names.
func boundConds(q *query.Query, i int, tabs []*table.Table, tuplePos []int, sides [][2]int) []exec.BoundCond {
	var out []exec.BoundCond
	for k, j := range q.Joins {
		var other int
		bc := exec.BoundCond{}
		switch i {
		case sides[k][0]:
			other = sides[k][1]
			bc.LeftCol, bc.RightCol = j.RightCol, j.LeftCol
		case sides[k][1]:
			other = sides[k][0]
			bc.LeftCol, bc.RightCol = j.LeftCol, j.RightCol
		default:
			continue
		}
		if tuplePos[other] < 0 {
			continue
		}
		bc.LeftPos = tuplePos[other]
		bc.LeftColIdx = tabs[other].Schema.ColumnIndex(bc.LeftCol)
		bc.RightColIdx = tabs[i].Schema.ColumnIndex(bc.RightCol)
		out = append(out, bc)
	}
	return out
}

// chooseJoin selects the join algorithm for bringing in the right table:
// BNLI when an index over a join column is available and the indexed probe
// beats the buffered build (compared through the cost model), BNL otherwise.
// It returns the chosen step with its host-side cost and output cardinality.
func (o *Optimizer) chooseJoin(right exec.AccessPath, rt *table.Table, conds []exec.BoundCond, leftRows float64) (exec.JoinStep, cost.NodeCost, float64, error) {
	step := exec.JoinStep{Right: right, Conds: conds, Type: exec.BNL}
	bnlCost, bnlOut, err := o.Est.StepCost(step, leftRows, cost.Host)
	if err != nil {
		return exec.JoinStep{}, cost.NodeCost{}, 0, err
	}

	// Find an indexable condition and move it to the front.
	idxCand := -1
	isPK := false
	idxName := ""
	for i, c := range conds {
		if c.RightCol == rt.Schema.PrimaryKey {
			idxCand, isPK = i, true
			break
		}
		if si, ok := rt.SecondaryIndexFor(c.RightCol); ok {
			idxCand, idxName = i, si.Name
		}
	}
	if idxCand < 0 {
		return step, bnlCost, bnlOut, nil
	}
	indexed := step
	indexed.Type = exec.BNLI
	indexed.RightIndexIsPK = isPK
	indexed.RightIndex = idxName
	if idxCand > 0 {
		indexed.Conds = make([]exec.BoundCond, 0, len(conds))
		indexed.Conds = append(indexed.Conds, conds[idxCand])
		indexed.Conds = append(indexed.Conds, conds[:idxCand]...)
		indexed.Conds = append(indexed.Conds, conds[idxCand+1:]...)
	}

	bnliCost, bnliOut, err := o.Est.StepCost(indexed, leftRows, cost.Host)
	if err != nil {
		return exec.JoinStep{}, cost.NodeCost{}, 0, err
	}
	if bnliCost.Total() < bnlCost.Total() {
		return indexed, bnliCost, bnliOut, nil
	}
	return step, bnlCost, bnlOut, nil
}

// Decision is the optimizer's final choice for a query.
type Decision struct {
	Plan  *exec.Plan
	Costs *cost.SplitCosts
	// Kind and Split encode the chosen strategy (coop.Strategy mirrors
	// this; the optimizer package avoids importing coop).
	Hybrid bool
	NDP    bool
	// Split is the chosen Hk index: 0 = H0 (leaf offloading), k ≥ 1 = Hk.
	Split int
	// Reason explains the choice.
	Reason string
}

// StrategyLabel renders the decision.
func (d *Decision) StrategyLabel() string {
	switch {
	case d.Hybrid:
		return fmt.Sprintf("H%d", d.Split)
	case d.NDP:
		return "ndp"
	default:
		return "host"
	}
}

// Decide plans the query and picks an execution strategy (paper §3.3): the
// preconditions gate offloading, the split point Hk is the one whose
// cumulative device cost is closest to c_target, and the final choice is the
// cheapest of host-only, NDP-only and hybrid-at-Hk.
func (o *Optimizer) Decide(q *query.Query) (*Decision, error) {
	p, err := o.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	sc, err := o.Est.PlanCosts(p)
	if err != nil {
		return nil, err
	}
	d := &Decision{Plan: p, Costs: sc}

	if !o.NDPMounted {
		d.Reason = "device not mounted in NDP mode"
		return d, nil
	}
	if p.NumTables() < 2 {
		// Single-table queries: NDP-only vs host decided by total cost.
		if sc.NDPTotal < sc.HostTotal {
			d.NDP = true
			d.Reason = "single-table, NDP cheaper"
		} else {
			d.Reason = "single-table, host cheaper"
		}
		return d, nil
	}
	var devBytes int64
	for _, ref := range q.Tables {
		t, err := o.Cat.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		devBytes += t.CollectStats().TotalBytes()
	}
	if devBytes < o.MinDeviceBytes {
		d.Reason = "transfer volume below the per-command minimum"
		return d, nil
	}

	// Device feasibility caps the candidate splits (≤12/17 table limit).
	feasible := make([]bool, len(sc.CNode))
	for k := range sc.CNode {
		sa := k
		if k == 0 {
			sa = -1
		}
		feasible[k] = devicePlanFits(o.Model, p, sa)
	}

	best := -1
	bestDist := math.Inf(1)
	for k := range sc.CNode {
		if !feasible[k] {
			continue
		}
		if dd := math.Abs(sc.CNode[k] - sc.CTarget); dd < bestDist {
			best, bestDist = k, dd
		}
	}
	if best < 0 {
		d.Reason = "no feasible device split (memory budget)"
		return d, nil
	}
	d.Split = best

	hybridCost := sc.HybridEst[best]
	switch {
	case hybridCost <= sc.HostTotal && hybridCost <= sc.NDPTotal:
		d.Hybrid = true
		d.Reason = fmt.Sprintf("hybrid H%d closest to c_target and cheapest (%.0f ≤ host %.0f, ndp %.0f)",
			best, hybridCost, sc.HostTotal, sc.NDPTotal)
	case sc.NDPTotal < sc.HostTotal && feasible[len(feasible)-1]:
		d.NDP = true
		d.Reason = fmt.Sprintf("full NDP cheapest (%.0f < host %.0f)", sc.NDPTotal, sc.HostTotal)
	default:
		d.Reason = fmt.Sprintf("host-only cheapest (%.0f)", sc.HostTotal)
	}
	return d, nil
}

// DecideShard re-runs the split-point calculation for one driving-table
// shard holding frac of the driving rows (fleet execution, paper §3 applied
// per partition): the shard's c_node curve is priced against its local
// statistics via ShardPlanCosts and the candidate splits are restricted to
// the interior Hk (k ≥ 1) — H0's leaf broadcast and the host-only baseline
// are fleet-global choices, so a shard only decides between "device joins up
// to k" and "run my partition on the host". The returned decision carries
// Hybrid=true with the chosen Split, or Hybrid=false when the shard-local
// host cost undercuts every feasible device split. g is the plan's global
// cost picture (the fleet decision's Costs), which the deepening step prices
// the shared gather host from.
func (o *Optimizer) DecideShard(p *exec.Plan, g *cost.SplitCosts, frac float64) (*Decision, error) {
	sc, err := o.Est.ShardPlanCosts(p, frac)
	if err != nil {
		return nil, err
	}
	d := &Decision{Plan: p, Costs: sc}
	best := -1
	bestDist := math.Inf(1)
	for k := 1; k < len(sc.CNode); k++ {
		if !devicePlanFits(o.Model, p, k) {
			continue
		}
		if dd := math.Abs(sc.CNode[k] - sc.CTarget); dd < bestDist {
			best, bestDist = k, dd
		}
	}
	if best < 0 {
		d.Reason = "shard: no feasible device split (memory budget)"
		return d, nil
	}
	d.Split = best
	if sc.HybridEst[best] <= sc.HostTotal {
		d.Hybrid = true
		d.Reason = fmt.Sprintf("shard frac %.3f: H%d closest to c_target (%.0f ≤ host %.0f)",
			frac, best, sc.HybridEst[best], sc.HostTotal)
	} else {
		d.Reason = fmt.Sprintf("shard frac %.3f: host cheaper (%.0f < H%d %.0f)",
			frac, sc.HostTotal, best, sc.HybridEst[best])
	}
	if d.Hybrid && frac < 1 {
		// Fleet deepening (N > 1 devices): the gather host is shared by
		// every shard while shard device chains run in parallel, so a shard
		// can afford join steps past the single-device balance point. The
		// fleet estimate for split k overlaps the shard's frac-scaled device
		// chain with the *global* host remainder (all shards' tuples pass
		// through one host) plus the global transfer; deepen past best while
		// the estimate improves. At frac = 1 the fleet degenerates to the
		// single-device split above, keeping the N=1 mirror invariant.
		fleetEst := func(k int) float64 {
			return math.Max(sc.DevPart[k], g.HostPart[k]) + g.Trans[k]
		}
		deep, deepCost := best, fleetEst(best)
		for k := best + 1; k < len(sc.CNode); k++ {
			if !devicePlanFits(o.Model, p, k) {
				continue
			}
			if c := fleetEst(k); c < deepCost {
				deep, deepCost = k, c
			}
		}
		if deep != best {
			d.Split = deep
			d.Reason = fmt.Sprintf("shard frac %.3f: deepened H%d→H%d (fleet est %.0f, shared host part %.0f)",
				frac, best, deep, deepCost, g.HostPart[deep])
		}
	}
	return d, nil
}

// devicePlanFits mirrors device.PlanMemory without importing the package
// (avoids a dependency cycle through coop).
func devicePlanFits(m hw.Model, p *exec.Plan, splitAfter int) bool {
	nTables := 1 + splitAfter
	if splitAfter < 0 {
		nTables = p.NumTables()
	}
	joins := 0
	if splitAfter > 0 {
		joins = splitAfter
	}
	secondary := 0
	for i := 0; i < splitAfter && i < len(p.Steps); i++ {
		if p.Steps[i].Type == exec.BNLI && !p.Steps[i].RightIndexIsPK {
			secondary++
		}
	}
	total := int64(nTables+secondary)*m.SelBufBytes + int64(joins)*m.JoinBufBytes
	return total <= m.DeviceNDPBudget
}
