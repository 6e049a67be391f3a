package cost_test

import (
	"math"
	"sync"
	"testing"

	"hybridndp/internal/cost"
	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
)

var (
	dsOnce sync.Once
	ds     *job.Dataset
	dsErr  error
)

func testEnv(t *testing.T) (*job.Dataset, *cost.Estimator, *optimizer.Optimizer) {
	t.Helper()
	dsOnce.Do(func() {
		ds, dsErr = job.Load(0.01, hw.Cosmos())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	est := cost.NewEstimator(ds.Cat, ds.Model, cost.DefaultParams())
	return ds, est, optimizer.New(ds.Cat, ds.Model)
}

func TestAccessCostDeviceCheaperScanPricierCPU(t *testing.T) {
	_, est, opt := testEnv(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	// Find the cast_info access (big, unfiltered): device scan term must be
	// cheaper (internal bandwidth), CPU term pricier (weak core).
	for _, st := range p.Steps {
		if st.Right.Ref.Table != "cast_info" {
			continue
		}
		h, err := est.AccessCost(st.Right, cost.Host)
		if err != nil {
			t.Fatal(err)
		}
		d, err := est.AccessCost(st.Right, cost.Device)
		if err != nil {
			t.Fatal(err)
		}
		if d.Scan >= h.Scan {
			t.Fatalf("device scan (%.0f) must be cheaper than host (%.0f)", d.Scan, h.Scan)
		}
		if d.CPU <= h.CPU {
			t.Fatalf("device CPU (%.0f) must be pricier than host (%.0f)", d.CPU, h.CPU)
		}
		return
	}
	t.Fatal("8c plan has no cast_info step")
}

func TestTransferCostMonotone(t *testing.T) {
	_, est, _ := testEnv(t)
	small := est.TransferCost(1000, 16)
	big := est.TransferCost(100000, 16)
	if small <= 0 || big <= small {
		t.Fatalf("transfer costs not monotone: %f vs %f", small, big)
	}
	if est.TransferCost(0, 16) != 0 {
		t.Fatal("zero rows must be free")
	}
}

func TestJoinOutRowsDeduplicatesTransitiveConds(t *testing.T) {
	_, est, opt := testEnv(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	// Find a step with multiple conditions on the same right column.
	for _, st := range p.Steps {
		cols := map[string]int{}
		for _, c := range st.Conds {
			cols[c.RightCol]++
		}
		for col, n := range cols {
			if n < 2 {
				continue
			}
			// Estimate with duplicates must equal the estimate with one.
			dedup := st
			dedup.Conds = nil
			seen := map[string]bool{}
			for _, c := range st.Conds {
				if !seen[c.RightCol] {
					seen[c.RightCol] = true
					dedup.Conds = append(dedup.Conds, c)
				}
			}
			a := est.JoinOutRows(st, 1000, 5000)
			b := est.JoinOutRows(dedup, 1000, 5000)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("transitive %s conds changed the estimate: %f vs %f", col, a, b)
			}
			return
		}
	}
	t.Skip("no step with transitive conditions in this plan")
}

func TestPlanCostsStructure(t *testing.T) {
	_, est, opt := testEnv(t)
	for _, name := range []string{"1a", "8c", "32b"} {
		p, err := opt.BuildPlan(job.QueryByName(name))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := est.PlanCosts(p)
		if err != nil {
			t.Fatal(err)
		}
		n := p.NumTables()
		if len(sc.CNode) != n || len(sc.DevPart) != n || len(sc.Rows) != n {
			t.Fatalf("%s: wrong split vector lengths", name)
		}
		// Cumulative from H1 upward (H0 is the first node by definition).
		for k := 2; k < n; k++ {
			if sc.CNode[k] < sc.CNode[k-1] {
				t.Fatalf("%s: c_node not cumulative at H%d", name, k)
			}
		}
		if sc.CTarget <= 0 || sc.CTarget >= sc.CNode[n-1] {
			t.Fatalf("%s: c_target %.0f outside (0, c_total=%.0f)", name, sc.CTarget, sc.CNode[n-1])
		}
		if sc.BestSplit < 0 || sc.BestSplit >= n {
			t.Fatalf("%s: best split H%d out of range", name, sc.BestSplit)
		}
		// The chosen split is the closest to c_target.
		for k := range sc.CNode {
			if math.Abs(sc.CNode[k]-sc.CTarget) < math.Abs(sc.CNode[sc.BestSplit]-sc.CTarget)-1e-9 {
				t.Fatalf("%s: H%d closer to target than chosen H%d", name, k, sc.BestSplit)
			}
		}
		if sc.HostTotal <= 0 || sc.NDPTotal <= 0 {
			t.Fatalf("%s: degenerate totals", name)
		}
		if sc.String() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestSplitTargetCPUOnlyAblation(t *testing.T) {
	_, est, opt := testEnv(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	both, err := est.PlanCosts(p)
	if err != nil {
		t.Fatal(err)
	}
	est.TargetCPUOnly = true
	defer func() { est.TargetCPUOnly = false }()
	cpuOnly, err := est.PlanCosts(p)
	if err != nil {
		t.Fatal(err)
	}
	// eq. 12: (cpu+mem)/200 vs cpu/100 — with mem% < cpu% the CPU-only
	// target is higher.
	if both.SplitMem >= both.SplitCPU {
		t.Skip("memory ratio unexpectedly dominates")
	}
	if cpuOnly.CTarget <= both.CTarget {
		t.Fatalf("cpu-only target %.0f should exceed combined %.0f", cpuOnly.CTarget, both.CTarget)
	}
}

func TestFullNDPCostExceedsHostForDeepPlans(t *testing.T) {
	// The cost model must reproduce the paper's core claim: whole-plan
	// offloading of a deep join query is estimated as more expensive than
	// host-only execution.
	_, est, opt := testEnv(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := est.PlanCosts(p)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NDPTotal <= sc.HostTotal {
		t.Fatalf("full NDP (%.0f) should be estimated costlier than host (%.0f) on Q8.c",
			sc.NDPTotal, sc.HostTotal)
	}
}

func TestStepCostBufferPassPenalty(t *testing.T) {
	_, est, opt := testEnv(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	// Force a BNL step and inflate the left side: device scan cost grows
	// once the estimated outer volume exceeds the join buffer.
	var step exec.JoinStep
	found := false
	for _, st := range p.Steps {
		if st.Type == exec.BNL && st.Right.Ref.Table == "cast_info" {
			step, found = st, true
		}
	}
	if !found {
		t.Skip("no BNL cast_info step")
	}
	small, _, err := est.StepCost(step, 10, cost.Device)
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := est.StepCost(step, 5_000_000, cost.Device)
	if err != nil {
		t.Fatal(err)
	}
	if big.Scan <= small.Scan {
		t.Fatalf("huge outer should multiply device scan cost (%.0f vs %.0f)", big.Scan, small.Scan)
	}
}

func TestDefaultParams(t *testing.T) {
	if cost.DefaultParams().UsrRec <= 0 {
		t.Fatal("usr_rec must be positive")
	}
	if cost.Host.String() != "host" || cost.Device.String() != "device" {
		t.Fatal("side rendering")
	}
	nc := cost.NodeCost{Scan: 1, CPU: 2, Trans: 3}
	if nc.Total() != 6 {
		t.Fatal("NodeCost.Total")
	}
}
