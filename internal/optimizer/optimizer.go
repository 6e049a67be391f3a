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

// Optimizer plans queries against a catalog and hardware model.
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
func (o *Optimizer) buildAccessPath(q *query.Query, ref query.TableRef, proj map[string][]string, sel *[]int32) (exec.AccessPath, error) {
	t, err := o.Cat.Table(ref.Table)
	if err != nil {
		return exec.AccessPath{}, err
	}
	st := t.CollectStats()
	ap := exec.AccessPath{Ref: ref, Proj: proj[ref.Alias]}
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
	return ap, nil
}

// BuildPlan computes the physical plan: access paths, greedy join order and
// join types (paper §3.2: the optimizer estimates the best access path per
// table, combines it with the subsequent table, and compares join orders).
func (o *Optimizer) BuildPlan(q *query.Query) (*exec.Plan, error) {
	if err := q.Validate(o.Cat); err != nil {
		return nil, err
	}
	proj := q.ProjectedColumns()
	paths := make(map[string]exec.AccessPath, len(q.Tables))
	var sel []int32
	for _, ref := range q.Tables {
		ap, err := o.buildAccessPath(q, ref, proj, &sel)
		if err != nil {
			return nil, err
		}
		paths[ref.Alias] = ap
	}

	plan := &exec.Plan{
		Query:      q,
		Aggregates: q.Aggregates,
		Output:     q.Output,
		GroupBy:    q.GroupBy,
	}

	if len(q.Tables) == 1 {
		plan.Driving = paths[q.Tables[0].Alias]
		plan.EstTotalRows = plan.Driving.EstRows
		return plan, nil
	}

	// Driving table: the cheapest estimated access (host side). Iterate in
	// query declaration order, not map order, so tied scores break the same
	// way on every run — plans (and therefore simulated times) must be
	// deterministic for a given query.
	var drivingAlias string
	best := math.Inf(1)
	for _, ref := range q.Tables {
		ap := paths[ref.Alias]
		nc, err := o.Est.AccessCost(ap, cost.Host)
		if err != nil {
			return nil, err
		}
		// Penalize large survivor sets: they multiply downstream join work.
		score := nc.Total() + ap.EstRows*100
		if score < best {
			best = score
			drivingAlias = ref.Alias
		}
	}
	plan.Driving = paths[drivingAlias]

	joined := map[string]int{drivingAlias: 0} // alias → tuple position
	rows := plan.Driving.EstRows
	remaining := map[string]bool{}
	for _, ref := range q.Tables {
		if ref.Alias != drivingAlias {
			remaining[ref.Alias] = true
		}
	}

	for len(remaining) > 0 {
		type cand struct {
			step  exec.JoinStep
			out   float64
			score float64
		}
		var bestC *cand
		for _, ref := range q.Tables { // declaration order: deterministic ties
			alias := ref.Alias
			if !remaining[alias] {
				continue
			}
			conds := o.boundConds(q, alias, joined)
			if len(conds) == 0 {
				continue
			}
			step, err := o.chooseJoin(paths[alias], conds, rows)
			if err != nil {
				return nil, err
			}
			nc, out, err := o.Est.StepCost(step, rows, cost.Host)
			if err != nil {
				return nil, err
			}
			score := nc.Total() + out*100
			if bestC == nil || score < bestC.score {
				bestC = &cand{step: step, out: out, score: score}
			}
		}
		if bestC == nil {
			return nil, fmt.Errorf("optimizer: query %s has disconnected tables", q.Name)
		}
		bestC.step.EstRows = bestC.out
		plan.Steps = append(plan.Steps, bestC.step)
		joined[bestC.step.Right.Ref.Alias] = len(joined)
		delete(remaining, bestC.step.Right.Ref.Alias)
		rows = bestC.out
	}
	plan.EstTotalRows = rows
	return plan, nil
}

// boundConds resolves all join conditions linking alias to already-joined
// tables into tuple-position-bound conditions, with column indices resolved
// at plan time so the executor's per-tuple path never resolves names.
func (o *Optimizer) boundConds(q *query.Query, alias string, joined map[string]int) []exec.BoundCond {
	schemaOf := func(a string) *table.Schema {
		for _, ref := range q.Tables {
			if ref.Alias == a {
				if t, err := o.Cat.Table(ref.Table); err == nil {
					return t.Schema
				}
				break
			}
		}
		return nil
	}
	rightSchema := schemaOf(alias)
	var out []exec.BoundCond
	for _, j := range q.Joins {
		if !j.Touches(alias) {
			continue
		}
		other := j.Other(alias)
		pos, ok := joined[other]
		if !ok {
			continue
		}
		bc := exec.BoundCond{LeftPos: pos, LeftColIdx: -1, RightColIdx: -1}
		if j.LeftAlias == alias {
			bc.LeftCol = j.RightCol
			bc.RightCol = j.LeftCol
		} else {
			bc.LeftCol = j.LeftCol
			bc.RightCol = j.RightCol
		}
		if ls := schemaOf(other); ls != nil {
			bc.LeftColIdx = ls.ColumnIndex(bc.LeftCol)
		}
		if rightSchema != nil {
			bc.RightColIdx = rightSchema.ColumnIndex(bc.RightCol)
		}
		out = append(out, bc)
	}
	return out
}

// chooseJoin selects the join algorithm for bringing in the right table:
// BNLI when an index over a join column is available and the indexed probe
// beats the buffered build (compared through the cost model), BNL otherwise.
func (o *Optimizer) chooseJoin(right exec.AccessPath, conds []exec.BoundCond, leftRows float64) (exec.JoinStep, error) {
	rt, err := o.Cat.Table(right.Ref.Table)
	if err != nil {
		return exec.JoinStep{}, err
	}
	step := exec.JoinStep{Right: right, Conds: conds, Type: exec.BNL}

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
		return step, nil
	}
	indexed := step
	indexed.Type = exec.BNLI
	indexed.RightIndexIsPK = isPK
	indexed.RightIndex = idxName
	indexed.Conds = append([]exec.BoundCond{conds[idxCand]}, removeAt(conds, idxCand)...)

	bnlCost, _, err := o.Est.StepCost(step, leftRows, cost.Host)
	if err != nil {
		return exec.JoinStep{}, err
	}
	bnliCost, _, err := o.Est.StepCost(indexed, leftRows, cost.Host)
	if err != nil {
		return exec.JoinStep{}, err
	}
	if bnliCost.Total() < bnlCost.Total() {
		return indexed, nil
	}
	return step, nil
}

func removeAt(s []exec.BoundCond, i int) []exec.BoundCond {
	out := make([]exec.BoundCond, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
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
// host cost undercuts every feasible device split.
func (o *Optimizer) DecideShard(p *exec.Plan, frac float64) (*Decision, error) {
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
		g, err := o.Est.PlanCosts(p)
		if err != nil {
			return nil, err
		}
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
