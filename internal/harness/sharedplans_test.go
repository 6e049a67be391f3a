package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/query"
	"hybridndp/internal/sql"
)

// TestForceJoinTypesLeavesTheSourcePlanAlone: forcing BNLI moves the indexable
// condition to the front of its step — in the forced copy, not in the plan it
// was copied from, which Fig. 15 forces again (to BNL) and which the
// optimizer's memo shares with every other caller.
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
	bnli := forceJoinTypes(p, exec.BNLI)
	if st := bnli.Steps[0]; st.Type != exec.BNLI || !st.RightIndexIsPK || st.Conds[0].RightCol != "id" {
		t.Fatalf("forced plan does not lead with the indexed condition: %s", bnli)
	}
	if got := p.String(); got != before {
		t.Fatalf("forcing BNLI rewrote the source plan:\n got: %s\nwant: %s", got, before)
	}
	if bnl := forceJoinTypes(p, exec.BNL); bnl.Steps[0].Conds[0].RightCol != "title" {
		t.Fatalf("the BNL forcing inherited the BNLI forcing's condition order: %s", bnl)
	}
}

// deepCopy copies everything reachable from v, so that the copy shares no
// memory with it.
func deepCopy(v reflect.Value) reflect.Value {
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
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i))) // panics on an unexported field: plans have none
		}
		return c
	}
	return v
}

// TestSharedPlansAreNeverWritten: the optimizer hands every caller of one
// query the same plan object, so nothing downstream may write to it. Every
// memoized plan is deep-copied, run through every execution path on one warm
// executor, and compared with its copy.
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
			for k := -1; k <= len(p.Steps); k++ {
				if k != 0 && device.PlanMemory(h.DS.Model, p, k).Fits() {
					run(q, p, coop.Strategy{Kind: coop.Hybrid, Split: k})
				}
			}
		}
		if listing2 { // the Exp 4/5 forcings
			run(q, forceJoinTypes(p, exec.BNL), coop.Strategy{Kind: coop.NDPOnly})
			run(q, forceJoinTypes(p, exec.BNLI), coop.Strategy{Kind: coop.HostNative})
			run(q, forceJoinTypes(p, exec.BNLI), coop.Strategy{Kind: coop.NDPOnly})
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
