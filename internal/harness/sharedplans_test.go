package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/query"
	"hybridndp/internal/sql"
	"hybridndp/internal/table"
)

// TestForceJoinTypesLeavesTheSourcePlanAlone: forcing BNLI moves the indexable
// condition to the front of its step — in the forced copy, not in the plan it
// was copied from, which Fig. 15 forces again (to BNL, WithBufferedJoins) and
// which the optimizer's memo shares with every other caller.
func TestForceJoinTypesLeavesTheSourcePlanAlone(t *testing.T) {
	p := &exec.Plan{
		Query:   &query.Query{Name: "two-conds"},
		Driving: exec.AccessPath{Ref: query.TableRef{Alias: "mk", Table: "movie_keyword"}},
		Steps: []exec.JoinStep{{
			Right: exec.AccessPath{Ref: query.TableRef{Alias: "t", Table: "title"}},
			Conds: []exec.BoundCond{
				{LeftPos: 0, LeftCol: "note", RightCol: "title"},  // no index
				{LeftPos: 0, LeftCol: "movie_id", RightCol: "id"}, // the primary key
			},
		}},
	}
	before := p.String()
	bnli, err := forceIndexJoins(testHarness(t).DS.Cat, p)
	if err != nil {
		t.Fatal(err)
	}
	if st := bnli.Steps[0]; st.Type != exec.BNLI || !st.RightIndexIsPK || st.Conds[0].RightCol != "id" {
		t.Fatalf("forced plan does not lead with the indexed condition: %s", bnli)
	}
	if got := p.String(); got != before {
		t.Fatalf("forcing BNLI rewrote the source plan:\n got: %s\nwant: %s", got, before)
	}
	if bnl := p.WithBufferedJoins(); bnl.Steps[0].Conds[0].RightCol != "title" {
		t.Fatalf("the BNL forcing inherited the BNLI forcing's condition order: %s", bnl)
	}
}

// database is what a plan's prepared state points into without owning it:
// deepCopy copies these by reference, and reflect.DeepEqual compares equal
// pointers as equal without looking further.
var database = map[reflect.Type]bool{
	reflect.TypeOf((*table.Catalog)(nil)): true,
	reflect.TypeOf((*table.Table)(nil)):   true,
	reflect.TypeOf((*table.Schema)(nil)):  true,
}

// deepCopy copies everything reachable from v but the database, so that the
// copy shares no memory with it. The prepared state a plan carries is made of
// unexported fields; those are read and written in place (settable).
func deepCopy(v reflect.Value) reflect.Value {
	if database[v.Type()] {
		return v
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type()).Elem()
		if v.Kind() == reflect.Pointer {
			c.Set(reflect.New(v.Type().Elem()))
			c.Elem().Set(deepCopy(v.Elem()))
		} else {
			c.Set(deepCopy(v.Elem()))
		}
		return c
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			c.SetMapIndex(it.Key(), deepCopy(it.Value()))
		}
		return c
	case reflect.Struct:
		if !v.CanAddr() {
			a := reflect.New(v.Type()).Elem()
			a.Set(v)
			v = a
		}
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			settable(c.Field(i)).Set(deepCopy(settable(v.Field(i))))
		}
		return c
	}
	return v
}

// settable returns a field of an addressable struct without the read-only mark
// an unexported field carries.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// TestSharedPlansAreNeverWritten: the optimizer hands every caller of one
// query the same plan object, so nothing downstream may write to it — nor to
// the prepared pipeline it carries, which every engine of every run reads, nor
// to its prepared H0 variant. Every memoized plan is deep-copied with all of
// that, run through every execution path on one warm executor, and compared
// with its copy.
func TestSharedPlansAreNeverWritten(t *testing.T) {
	h := FromDataset(testHarness(t).DS) // an optimizer and an executor of the test's own
	fleets := make([]*fleet.Executor, 0, 2)
	for _, n := range []int{1, 4} {
		desc, err := fleet.Build(h.DS.Cat, n, "range")
		if err != nil {
			t.Fatal(err)
		}
		fleets = append(fleets, fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc))
	}
	run := func(q *query.Query, p *exec.Plan, s coop.Strategy) {
		t.Helper()
		if _, err := h.Exec.Run(p, s); err != nil {
			t.Fatalf("%s under %v: %v", q.Name, s, err)
		}
	}
	qs := append(job.Queries(), job.ExtensionQueries()...)
	qs = append(qs, job.Listing2(h.listing2MaxID(), false), job.Listing2(h.listing2MaxID(), true))
	for i, q := range qs {
		d, err := h.Opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Plan
		if again, _ := h.Opt.BuildPlan(q); again != p {
			t.Fatalf("%s: plan is not memoized", q.Name)
		}
		if b := p.WithBufferedJoins(); b != p.WithBufferedJoins() || b.WithBufferedJoins() != b {
			t.Fatalf("%s: the H0 variant is not prepared once with the plan", q.Name)
		}
		snapshot := deepCopy(reflect.ValueOf(p)).Interface()

		run(q, p, coop.Strategy{Kind: coop.HostNative})
		run(q, p, coop.DecisionStrategy(d))
		for _, x := range fleets {
			a, err := fleet.PlanShards(h.Opt, x.Desc, d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.Run(a); err != nil {
				t.Fatalf("%s on %d devices: %v", q.Name, x.Desc.Devices, err)
			}
		}
		listing2 := i >= len(qs)-2
		// The full strategy sweep for every sixth query (and never 31c, which
		// alone would double the test's time): the paths are per strategy, not
		// per query.
		if (i%6 == 0 && q.Name != "31c") || listing2 {
			if device.PlanMemory(h.DS.Model, p, len(p.Steps)).Fits() {
				run(q, p, coop.Strategy{Kind: coop.NDPOnly})
			}
			for _, st := range coop.Splits(p) {
				if device.PlanMemory(h.DS.Model, p, st.Split).Fits() {
					run(q, p, st)
				}
			}
		}
		if listing2 { // the Exp 4/5 forcings
			bnli, err := forceIndexJoins(h.DS.Cat, p)
			if err != nil {
				t.Fatal(err)
			}
			run(q, p.WithBufferedJoins(), coop.Strategy{Kind: coop.NDPOnly})
			run(q, bnli, coop.Strategy{Kind: coop.HostNative})
			run(q, bnli, coop.Strategy{Kind: coop.NDPOnly})
		}
		if !reflect.DeepEqual(p, snapshot) {
			t.Fatalf("%s: an execution wrote to the shared plan\n now: %s\nwas: %s", q.Name, p, snapshot)
		}
	}
}

// TestSharedPlansUnderConcurrency: eight goroutines parse, plan and run the
// same twenty statements against one optimizer and one executor. Run under
// -race (make race) this is the memo's and the shared plans' data-race test;
// in any mode every goroutine must read the same results.
func TestSharedPlansUnderConcurrency(t *testing.T) {
	h := FromDataset(testHarness(t).DS)
	var texts []string
	for _, q := range job.Queries()[:20] {
		text, err := sql.Render(q)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}
	const workers = 8
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = planAndRun(h, texts)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Fatalf("goroutine %d read different results:\n%v\n%v", w, got[w], got[0])
		}
	}
}

// TestPreparedPipelineUnderConcurrency: eight goroutines run one prepared plan
// at once on one host-native executor, one hybrid executor (at H1 and H0, whose
// buffered-join variant is prepared with the plan) and one 4-device fleet
// executor, every engine of every run reading the same prepared pipeline —
// shapes, bound conditions, key bindings, compiled predicates. Run under -race
// (make race) this is the prepared state's data-race test; in any mode every
// run must match a fresh executor's fingerprint and elapsed time.
func TestPreparedPipelineUnderConcurrency(t *testing.T) {
	h := FromDataset(testHarness(t).DS)
	d, err := h.Opt.Decide(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := fleet.Build(h.DS.Cat, 4, "range")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := *d // every shard of the fleet on its device, whatever Decide chose
	hybrid.Hybrid, hybrid.NDP, hybrid.Split = true, false, 1
	a, err := fleet.PlanShards(h.Opt, desc, &hybrid)
	if err != nil {
		t.Fatal(err)
	}
	host := coop.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model)
	coops := coop.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model)
	fx := fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc)
	runs := []func(fresh bool) (string, error){
		func(fresh bool) (string, error) {
			x := host
			if fresh {
				x = coop.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model)
			}
			rep, err := x.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("host %s %v", fleet.Fingerprint(rep.Result), rep.Elapsed), nil
		},
	}
	for _, split := range []int{1, 0} {
		s := coop.Strategy{Kind: coop.Hybrid, Split: split}
		runs = append(runs, func(fresh bool) (string, error) {
			x := coops
			if fresh {
				x = coop.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model)
			}
			rep, err := x.Run(d.Plan, s)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %s %v", s, fleet.Fingerprint(rep.Result), rep.Elapsed), nil
		})
	}
	runs = append(runs, func(fresh bool) (string, error) {
		x := fx
		if fresh {
			x = fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc)
		}
		rep, err := x.Run(a)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("fleet4 %s %v", fleet.Fingerprint(rep.Result), rep.Elapsed), nil
	})
	want := make([]string, len(runs))
	for i, run := range runs {
		if want[i], err = run(true); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(runs); k++ {
				i := (k + g) % len(runs)
				got, err := runs[i](false)
				if err != nil {
					t.Error(err)
				} else if got != want[i] {
					t.Errorf("goroutine %d: %s, a fresh executor ran %s", g, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// planAndRun answers each statement host-native and as decided and returns
// one line per execution.
func planAndRun(h *H, texts []string) ([]string, error) {
	var out []string
	for _, text := range texts {
		q, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		d, err := h.Opt.Decide(q)
		if err != nil {
			return nil, err
		}
		for _, s := range []coop.Strategy{{Kind: coop.HostNative}, coop.DecisionStrategy(d)} {
			rep, err := h.Exec.Run(d.Plan, s)
			if err != nil {
				return nil, err
			}
			out = append(out, fmt.Sprintf("%v %s %v", s, fleet.Fingerprint(rep.Result), rep.Elapsed))
		}
	}
	return out, nil
}
