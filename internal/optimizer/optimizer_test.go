package optimizer_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybridndp/internal/exec"
	"hybridndp/internal/harness"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
)

var (
	dsOnce sync.Once
	ds     *job.Dataset
	dsErr  error
)

func testOpt(t testing.TB) (*job.Dataset, *optimizer.Optimizer) {
	t.Helper()
	dsOnce.Do(func() {
		ds, dsErr = job.Load(0.01, hw.Cosmos())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return ds, optimizer.New(ds.Cat, ds.Model)
}

func TestBuildPlanCoversAllTablesOnce(t *testing.T) {
	_, opt := testOpt(t)
	for _, name := range []string{"1a", "8c", "17b", "29a", "33c"} {
		q := job.QueryByName(name)
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.NumTables() != len(q.Tables) {
			t.Fatalf("%s: plan has %d tables, query %d", name, p.NumTables(), len(q.Tables))
		}
		seen := map[string]bool{}
		for _, a := range p.Aliases() {
			if seen[a] {
				t.Fatalf("%s: alias %s appears twice", name, a)
			}
			seen[a] = true
		}
		// Every join step must have at least one bound condition (connected
		// left-deep order).
		for i, st := range p.Steps {
			if len(st.Conds) == 0 {
				t.Fatalf("%s: step %d is a cross product", name, i)
			}
			for _, c := range st.Conds {
				if c.LeftPos < 0 || c.LeftPos > i {
					t.Fatalf("%s: step %d condition references future position %d", name, i, c.LeftPos)
				}
			}
		}
	}
}

func TestPlansForAll113Queries(t *testing.T) {
	_, opt := testOpt(t)
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			continue
		}
		if p.EstTotalRows < 0 {
			t.Errorf("%s: negative cardinality estimate", q.Name)
		}
	}
}

// TestCompiledSelectivityMatchesTreeWalk pins the estimator's kernel swap: the
// selectivity buildAccessPath derives by running the compiled filter over the
// stats sample's row views must equal, bit for bit, what tree-walking p.Eval
// over the sample's records gives — for every filter of the 113 queries.
func TestCompiledSelectivityMatchesTreeWalk(t *testing.T) {
	ds, opt := testOpt(t)
	filters := 0
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		paths := []exec.AccessPath{p.Driving}
		for _, st := range p.Steps {
			paths = append(paths, st.Right)
		}
		for _, ap := range paths {
			if ap.Filter == nil {
				continue
			}
			filters++
			tbl, err := ds.Cat.Table(ap.Ref.Table)
			if err != nil {
				t.Fatal(err)
			}
			if want := tbl.CollectStats().SelectivityOf(ap.Filter.Eval); ap.EstSel != want {
				t.Errorf("%s %s: compiled selectivity %v, tree-walk %v (%s)", q.Name, ap.Ref.Alias, ap.EstSel, want, ap.Filter)
			}
		}
	}
	if filters == 0 {
		t.Fatal("no filtered access path checked")
	}
}

func TestDrivingTableIsSelective(t *testing.T) {
	_, opt := testOpt(t)
	// 17b: keyword has an equality filter over an indexed column; the
	// optimizer should drive from a selective access path, not cast_info.
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Driving.Ref.Table == "cast_info" || p.Driving.Ref.Table == "movie_keyword" {
		t.Fatalf("driving table %s is a fact table; expected a selective dimension", p.Driving.Ref.Table)
	}
}

func TestIndexAccessPathForSelectiveEquality(t *testing.T) {
	_, opt := testOpt(t)
	// keyword.keyword = '...' is highly selective and idx_keyword exists.
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	check := func(ap exec.AccessPath) {
		if ap.Ref.Table == "keyword" {
			found = true
			if !ap.UseFilterIndex || ap.FilterIndex != "idx_keyword" {
				t.Fatalf("keyword access should use idx_keyword, got %+v", ap)
			}
		}
	}
	check(p.Driving)
	for _, st := range p.Steps {
		check(st.Right)
	}
	if !found {
		t.Fatal("keyword table missing from plan")
	}
}

func TestDecisionHasReasonAndConsistentCosts(t *testing.T) {
	_, opt := testOpt(t)
	for _, name := range []string{"1a", "8c", "32b"} {
		d, err := opt.Decide(job.QueryByName(name))
		if err != nil {
			t.Fatal(err)
		}
		if d.Reason == "" {
			t.Fatalf("%s: no reason", name)
		}
		if d.Hybrid && d.NDP {
			t.Fatalf("%s: contradictory decision", name)
		}
		label := d.StrategyLabel()
		if label == "" {
			t.Fatalf("%s: empty label", name)
		}
		if d.Hybrid && !strings.HasPrefix(label, "H") {
			t.Fatalf("%s: hybrid label %q", name, label)
		}
	}
}

func TestNDPNotMountedForcesHost(t *testing.T) {
	ds, _ := testOpt(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	opt.NDPMounted = false
	d, err := opt.Decide(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Hybrid || d.NDP {
		t.Fatal("unmounted device must force host-only")
	}
	if !strings.Contains(d.Reason, "mounted") {
		t.Fatalf("reason %q should mention the mount precondition", d.Reason)
	}
}

func TestMinVolumePrecondition(t *testing.T) {
	ds, _ := testOpt(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	opt.MinDeviceBytes = 1 << 50 // nothing qualifies
	d, err := opt.Decide(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Hybrid || d.NDP {
		t.Fatal("below-minimum volume must force host-only")
	}
}

func TestDeviceMemoryLimitBlocksDeepSplits(t *testing.T) {
	ds, _ := testOpt(t)
	m := ds.Model
	// Shrink the budget so only tiny offloads fit.
	m.DeviceNDPBudget = m.SelBufBytes * 2
	opt := optimizer.New(ds.Cat, m)
	d, err := opt.Decide(job.QueryByName("29a")) // 16-table query
	if err != nil {
		t.Fatal(err)
	}
	if d.Hybrid && d.Split > 1 {
		t.Fatalf("budget-constrained device accepted split H%d", d.Split)
	}
}

func TestJoinTypeSelectionPrefersIndexForSelectiveProbes(t *testing.T) {
	_, opt := testOpt(t)
	// 32b drives from an extremely selective keyword; joins against title
	// via PK should become BNLI.
	p, err := opt.BuildPlan(job.QueryByName("32b"))
	if err != nil {
		t.Fatal(err)
	}
	hasBNLI := false
	for _, st := range p.Steps {
		if st.Type == exec.BNLI {
			hasBNLI = true
			if !st.RightIndexIsPK && st.RightIndex == "" {
				t.Fatal("BNLI step without an index binding")
			}
		}
	}
	if !hasBNLI {
		t.Skip("optimizer chose buffered joins throughout (estimate-dependent)")
	}
}

func TestSingleTableDecision(t *testing.T) {
	ds, opt := testOpt(t)
	_ = ds
	q := job.Listing2(1<<30, false) // 2 tables
	if _, err := opt.Decide(q); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionsAreDeterministic serializes the optimizer's full output (plan
// tree, strategy, split, reason) for a fixed query set and requires every
// repetition — sequential, and under t.Parallel against a shared catalog on
// optimizers of their own and on one shared optimizer — to be byte-identical.
// This is the tier-1 determinism gate backing the maporder analyzer: any
// map-iteration-ordered choice in planning or splitting shows up here as a
// flaky diff.
func TestDecisionsAreDeterministic(t *testing.T) {
	ds, _ := testOpt(t)
	queries := []string{"1a", "4a", "8c", "16b", "17b", "22c", "29a", "33c"}
	serialize := func(opt *optimizer.Optimizer) string {
		var b strings.Builder
		for _, name := range queries {
			d, err := opt.Decide(job.QueryByName(name))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "%s %s split=%d reason=%q\n%s\n", name, d.StrategyLabel(), d.Split, d.Reason, d.Plan)
		}
		return b.String()
	}
	want := serialize(optimizer.New(ds.Cat, ds.Model))
	for i := 0; i < 10; i++ {
		if got := serialize(optimizer.New(ds.Cat, ds.Model)); got != want {
			t.Fatalf("sequential repetition %d diverged:\n got: %q\nwant: %q", i, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		i := i
		t.Run(fmt.Sprintf("parallel-%d", i), func(t *testing.T) {
			t.Parallel()
			if got := serialize(optimizer.New(ds.Cat, ds.Model)); got != want {
				t.Fatalf("parallel repetition %d diverged", i)
			}
		})
	}
	// One optimizer under all of them: whether a plan comes out of the memo
	// or is planned by whichever goroutine got there first must not show.
	shared := optimizer.New(ds.Cat, ds.Model)
	for i := 0; i < 10; i++ {
		i := i
		t.Run(fmt.Sprintf("shared-%d", i), func(t *testing.T) {
			t.Parallel()
			if got := serialize(shared); got != want {
				t.Fatalf("repetition %d on the shared optimizer diverged", i)
			}
		})
	}
}

// TestTracesAreDeterministic extends the determinism gate to the
// observability subsystem: two fresh harnesses at the same seed must trace
// the same query into byte-identical Chrome trace_event JSON, flame reports
// and metrics dumps. Any wall-clock leakage or map-ordered emission in
// internal/obs (or the instrumentation sites in coop/device) shows up here
// as a flaky diff — the run-time counterpart of the wallclock and maporder
// analyzers.
func TestTracesAreDeterministic(t *testing.T) {
	capture := func() (trace, flame, metrics string) {
		h, err := harness.NewSeeded(0.01, hw.Cosmos(), job.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		reg := h.BindMetrics(obs.NewRegistry())
		// H1 forces the cooperative hybrid so both timelines carry spans.
		tr, err := h.TraceQuery("8d", "H1")
		if err != nil {
			t.Fatal(err)
		}
		var j, f strings.Builder
		if err := tr.Trace.WriteChromeTrace(&j, 1); err != nil {
			t.Fatal(err)
		}
		if err := tr.Trace.WriteFlame(&f); err != nil {
			t.Fatal(err)
		}
		if !tr.Profile.Reconciles() {
			t.Fatal("profile does not reconcile with the virtual runtime")
		}
		h.PublishStorage(reg)
		return j.String(), f.String(), reg.Dump()
	}
	trace1, flame1, metrics1 := capture()
	trace2, flame2, metrics2 := capture()
	if trace1 != trace2 {
		t.Errorf("trace JSON diverged between identically-seeded runs:\n%s\n---\n%s", trace1, trace2)
	}
	if flame1 != flame2 {
		t.Errorf("flame report diverged:\n%s\n---\n%s", flame1, flame2)
	}
	if metrics1 != metrics2 {
		t.Errorf("metrics dump diverged:\n%s\n---\n%s", metrics1, metrics2)
	}
	if !strings.Contains(trace1, `"ph":"X"`) {
		t.Error("trace contains no complete spans")
	}
}
