package exec_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

var (
	jobOnce sync.Once
	jobDS   *job.Dataset
	jobErr  error
)

func jobDataset(t testing.TB) *job.Dataset {
	t.Helper()
	jobOnce.Do(func() { jobDS, jobErr = job.Load(0.01, hw.Cosmos()) })
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	return jobDS
}

// scratchMode is one way of executing a decided query; fresh builds the
// executor a mode's runs share (so a test chooses between a new one per run
// and one warm one).
type scratchMode struct {
	name  string
	fresh func(t testing.TB, ds *job.Dataset) func(d *optimizer.Decision) (*exec.Result, error)
}

func coopMode(name string, strategy func(*optimizer.Decision) coop.Strategy) scratchMode {
	return scratchMode{name, func(t testing.TB, ds *job.Dataset) func(*optimizer.Decision) (*exec.Result, error) {
		x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
		return func(d *optimizer.Decision) (*exec.Result, error) {
			rep, err := x.Run(d.Plan, strategy(d))
			if err != nil {
				return nil, err
			}
			return rep.Result, nil
		}
	}}
}

func fleetMode(name string, devices int) scratchMode {
	return scratchMode{name, func(t testing.TB, ds *job.Dataset) func(*optimizer.Decision) (*exec.Result, error) {
		desc, err := fleet.Build(ds.Cat, devices, fleet.SchemeRange)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(ds.Cat, ds.Model)
		x := fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
		return func(d *optimizer.Decision) (*exec.Result, error) {
			a, err := fleet.PlanShards(opt, desc, d)
			if err != nil {
				return nil, err
			}
			rep, err := x.Run(a)
			if err != nil {
				return nil, err
			}
			return rep.Result, nil
		}
	}}
}

var scratchModes = []scratchMode{
	coopMode("native", func(*optimizer.Decision) coop.Strategy { return coop.Strategy{Kind: coop.HostNative} }),
	coopMode("decided", coop.DecisionStrategy),
	coopMode("ndp", func(*optimizer.Decision) coop.Strategy { return coop.Strategy{Kind: coop.NDPOnly} }),
	fleetMode("fleet1", 1),
	fleetMode("fleet4", 4),
}

func decideAll(t testing.TB, ds *job.Dataset) []*optimizer.Decision {
	t.Helper()
	opt := optimizer.New(ds.Cat, ds.Model)
	var ds2 []*optimizer.Decision
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		ds2 = append(ds2, d)
	}
	return ds2
}

// TestRecycledScratchNeverAliasesResults is the lifetime rule's gate: nothing
// reachable from a result may alias scratch memory, and a run must not trust
// what an earlier run left in a recycled scratch. References come from a fresh
// executor per query with normal releases; then, with every release poisoning
// the scratch, all 113 queries run twice on one warm executor per mode and
// must reproduce fingerprint and retained rows exactly.
func TestRecycledScratchNeverAliasesResults(t *testing.T) {
	ds := jobDataset(t)
	decisions := decideAll(t, ds)
	if raceEnabled() {
		decisions = decisions[:20] // aliasing is not a race; the goroutine test below is
	}
	for _, m := range scratchModes {
		t.Run(m.name, func(t *testing.T) {
			refs := make([]*exec.Result, len(decisions))
			for i, d := range decisions {
				// A mode may refuse a query (NDP-only past the device's
				// memory budget); the warm executor must refuse it too.
				refs[i], _ = m.fresh(t, ds)(d)
			}
			defer exec.PoisonScratchOnRelease()()
			warm := m.fresh(t, ds)
			for pass := 0; pass < 2; pass++ {
				for i, d := range decisions {
					name := d.Plan.Query.Name
					got, err := warm(d)
					if (err != nil) != (refs[i] == nil) {
						t.Fatalf("%s pass %d: err %v, fresh executor returned %v", name, pass, err, refs[i])
					}
					if err != nil {
						continue
					}
					if g, w := fleet.Fingerprint(got), fleet.Fingerprint(refs[i]); g != w {
						t.Errorf("%s pass %d: fingerprint %s, fresh executor has %s", name, pass, g, w)
					}
					if !reflect.DeepEqual(got.Rows, refs[i].Rows) {
						t.Errorf("%s pass %d: retained rows differ from the fresh executor's", name, pass)
					}
				}
			}
		})
	}
}

// TestExecutorScratchPoolConcurrent drives one cooperative executor from 8
// goroutines, the way sched's workers and serve.Measure do: every run must
// hold scratches no other run sees (run under -race).
func TestExecutorScratchPoolConcurrent(t *testing.T) {
	ds := jobDataset(t)
	decisions := decideAll(t, ds)[:24]
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	want := make([]string, len(decisions))
	for i, d := range decisions {
		rep, err := coop.NewExecutor(ds.Cat, ds.DB, ds.Model).Run(d.Plan, coop.DecisionStrategy(d))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fleet.Fingerprint(rep.Result)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range decisions {
				i := (k + 3*g) % len(decisions)
				d := decisions[i]
				s := coop.DecisionStrategy(d)
				if (k+g)%2 == 0 {
					s = coop.Strategy{Kind: coop.HostNative}
				}
				rep, err := x.Run(d.Plan, s)
				if err != nil {
					t.Errorf("%s: %v", d.Plan.Query.Name, err)
					continue
				}
				if got := fleet.Fingerprint(rep.Result); got != want[i] {
					t.Errorf("%s under %s: fingerprint %s, want %s", d.Plan.Query.Name, s, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// allocatedBy reports the heap bytes f allocates, with the collector held off
// so no background work lands in the delta.
func allocatedBy(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// steadyQuery is the fixed median-band query of the allocation guard and the
// steady-state benchmark.
const steadyQuery = "12c"

// TestWarmExecutorAllocationCeiling is the allocation guard: once an executor
// has run a query, running it again allocates only what a run cannot recycle
// (engine, block cache, pipeline, timeline accounts, the result) — under
// steadyCeiling bytes, where the parent commit needed about 2 MB for the same
// run. It also pins the retention bound: a scratch that went through 31c,
// whose working set is far past the bound, retains no more than the bound.
func TestWarmExecutorAllocationCeiling(t *testing.T) {
	const steadyCeiling = 256 << 10
	ds := jobDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	p, err := opt.BuildPlan(job.QueryByName(steadyQuery))
	if err != nil {
		t.Fatal(err)
	}
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	run := func() {
		if _, err := x.Run(p, coop.Strategy{Kind: coop.HostNative}); err != nil {
			t.Fatal(err)
		}
	}
	cold := allocatedBy(run)
	warm := allocatedBy(run)
	t.Logf("%s host-native: first run %d B, second run %d B", steadyQuery, cold, warm)
	if warm > steadyCeiling {
		t.Errorf("second run of %s on a warm executor allocated %d B, ceiling is %d B", steadyQuery, warm, steadyCeiling)
	}

	heavy, err := opt.BuildPlan(job.QueryByName("31c"))
	if err != nil {
		t.Fatal(err)
	}
	sc := &exec.Scratch{}
	eng := &exec.Engine{Cat: ds.Cat, TL: vclock.NewTimeline("host"), R: hw.HostRates(ds.Model), Scratch: sc}
	if _, err := eng.RunPlan(heavy); err != nil {
		t.Fatal(err)
	}
	if held := sc.Retained(); held <= exec.ScratchRetainBytes {
		t.Fatalf("31c's working set is %d B, not past the %d B bound: pick a heavier query", held, exec.ScratchRetainBytes)
	}
	sc.Release()
	if held := sc.Retained(); held > exec.ScratchRetainBytes {
		t.Errorf("scratch released after 31c retains %d B, bound is %d B", held, exec.ScratchRetainBytes)
	}
}

// BenchmarkSteadyStateQuery is one median-band JOB query, planned once, run
// host-native on a warm executor: B/op is what a query allocates beyond its
// recycled scratch.
func BenchmarkSteadyStateQuery(b *testing.B) {
	ds := jobDataset(b)
	p, err := optimizer.New(ds.Cat, ds.Model).BuildPlan(job.QueryByName(steadyQuery))
	if err != nil {
		b.Fatal(err)
	}
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	run := func() {
		if _, err := x.Run(p, coop.Strategy{Kind: coop.HostNative}); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// raceEnabled reports whether this test binary was built with the race
// detector (read from the build settings, as internal/harness does).
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
