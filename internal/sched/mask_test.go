package sched_test

import (
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/sched"
	"hybridndp/internal/serve"
)

// TestTightBudgetOneMemoryMask shrinks the device budget to what split H1
// needs without a secondary index — two selections and one join — so H0 and
// full NDP of every plan of three or more tables no longer fit, and checks
// that every consumer of a decision masks strategies with the decision's own
// memory plans: nothing they reject is picked by Decide, offered by the
// scheduler's live runner, marked NDP-feasible by serving's cost table or
// launched on a device by the fleet planner.
func TestTightBudgetOneMemoryMask(t *testing.T) {
	base, err := job.Load(0.01, hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	ds := *base
	ds.Model.DeviceNDPBudget = 2*ds.Model.SelBufBytes + ds.Model.JoinBufBytes
	opt := optimizer.New(ds.Cat, ds.Model)
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	desc, err := fleet.Build(ds.Cat, 4, fleet.SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := serve.Measure(&ds, job.Queries(), 2)
	if err != nil {
		t.Fatal(err)
	}

	tight, offeredH1 := 0, 0
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		ndp := len(d.Plan.Steps)
		// fits reports whether the decision's memory plans admit strategy s.
		fits := func(s coop.Strategy) bool {
			switch s.Kind {
			case coop.Hybrid:
				return d.Mem[s.Split].Fits()
			case coop.NDPOnly:
				return d.Mem[ndp].Fits()
			}
			return true
		}
		if ndp >= 1 && !d.Mem[0].Fits() && !d.Mem[ndp].Fits() && d.Mem[1].Fits() {
			tight++
		}

		if s := coop.DecisionStrategy(d); !fits(s) {
			t.Errorf("%s: Decide picked %s, which the memory plans reject", q.Name, s)
		}

		cands, err := sched.LiveCandidates(opt, x, sched.ForceNDP, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if !fits(c.Strategy) {
				t.Errorf("%s: live runner offered %s, which the memory plans reject", q.Name, c.Strategy)
			}
			if c.Strategy == (coop.Strategy{Kind: coop.Hybrid, Split: 1}) && !d.Mem[0].Fits() {
				offeredH1++
			}
		}

		qc, ok := ct.Cost(q.Name)
		if !ok {
			t.Fatalf("%s: no measured cost", q.Name)
		}
		if qc.NDPFeasible != d.Mem[ndp].Fits() {
			t.Errorf("%s: serving marks NDP feasible=%v, memory plan fits=%v", q.Name, qc.NDPFeasible, d.Mem[ndp].Fits())
		}

		a, err := fleet.PlanShards(opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mode != fleet.ModeHost && (!a.Mem.Fits() || a.Mem != d.Mem[a.Split]) {
			t.Errorf("%s: the fleet launches split H%d (%s) outside the memory plans", q.Name, a.Split, a.Mode)
		}
	}
	t.Logf("%d plans fit only from H1 on; the live runner offered their H1 %d times", tight, offeredH1)
	if tight == 0 || offeredH1 == 0 {
		t.Fatalf("the budget rejects H0 and NDP but admits H1 for %d plans, the live runner offered that H1 %d times: the mask went unexercised",
			tight, offeredH1)
	}
}
