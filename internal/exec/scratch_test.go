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

// steadyRun is one way of running steadyQuery on a warm executor, with the
// ceiling on what its second run may allocate.
type steadyRun struct {
	name    string
	ceiling uint64
	run     func() error
}

// steadyRuns plans steadyQuery once and returns its runs host-native, at H1 on
// the cooperative executor, and hybrid on a 4-device fleet — each on an
// executor of its own, which the caller warms up.
func steadyRuns(t testing.TB, ds *job.Dataset) []steadyRun {
	opt := optimizer.New(ds.Cat, ds.Model)
	d, err := opt.Decide(job.QueryByName(steadyQuery))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := fleet.Build(ds.Cat, 4, fleet.SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := *d // the fleet's hybrid family whatever Decide chose: every shard re-splits
	hybrid.Hybrid, hybrid.NDP, hybrid.Split = true, false, 1
	a, err := fleet.PlanShards(opt, desc, &hybrid)
	if err != nil {
		t.Fatal(err)
	}
	coopRun := func(s coop.Strategy) func() error {
		x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
		return func() error { _, err := x.Run(d.Plan, s); return err }
	}
	fx := fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	return []steadyRun{
		{"host", 16 << 10, coopRun(coop.Strategy{Kind: coop.HostNative})},
		{"hybrid", 24 << 10, coopRun(coop.Strategy{Kind: coop.Hybrid, Split: 1})},
		{"fleet4", 32 << 10, func() error { _, err := fx.Run(a); return err }},
	}
}

// TestWarmExecutorAllocationCeiling is the allocation guard: once an executor
// has run a query, running it again allocates only what a run cannot recycle
// (engines, the pipeline's inner-state headers, timeline accounts, the decoded
// result, report maps) — under each run's ceiling, set from measurement: 2.2,
// 6.1 and 10.3 KiB (host, H1, fleet of 4; 9.3, 13.5 and 18.5 KiB while CHAR
// MIN/MAX decoded a string per tuple), where a run that built new LSM
// iterators, index seekers and leaf selection vectors allocated 88, 94 and
// 99 KiB, and one that also rebuilt the prepared pipeline, the block caches,
// the device result sets and the gather lists 120, 168 and 205 KiB. It also
// pins the heaviest query's bound: a second host-native run of 31c, whose
// step into movie_keyword emits over half a million tuples (229 MB a run
// while the chain materialized them), allocates under 16 MiB now that the
// chain streams them in pieces, and a scratch released after it — its
// working set, piece arenas and all, still past the retention bound — sheds
// arena blocks down to the bound, its block cache counted, and keeps the rest.
func TestWarmExecutorAllocationCeiling(t *testing.T) {
	ds := jobDataset(t)
	for _, r := range steadyRuns(t, ds) {
		run := func() {
			if err := r.run(); err != nil {
				t.Fatal(err)
			}
		}
		cold := allocatedBy(run)
		warm := allocatedBy(run)
		t.Logf("%s %s: first run %d B, second run %d B", steadyQuery, r.name, cold, warm)
		if warm > r.ceiling {
			t.Errorf("second %s run of %s on a warm executor allocated %d B, ceiling is %d B", r.name, steadyQuery, warm, r.ceiling)
		}
	}

	const heavyCeiling = 16 << 20
	heavy, err := optimizer.New(ds.Cat, ds.Model).BuildPlan(job.QueryByName("31c"))
	if err != nil {
		t.Fatal(err)
	}
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	run := func() {
		if _, err := x.Run(heavy, coop.Strategy{Kind: coop.HostNative}); err != nil {
			t.Fatal(err)
		}
	}
	cold := allocatedBy(run)
	warm := allocatedBy(run)
	t.Logf("31c host: first run %d B, second run %d B", cold, warm)
	if warm > heavyCeiling {
		t.Errorf("second host run of 31c on a warm executor allocated %d B, ceiling is %d B", warm, heavyCeiling)
	}

	sc := &exec.Scratch{}
	eng := &exec.Engine{Cat: ds.Cat, TL: vclock.NewTimeline("host"), R: hw.HostRates(ds.Model), Scratch: sc,
		Cache: sc.BlockCache(ds.DB.BlockCacheBytes(ds.Model.HostCacheFraction))}
	if _, err := eng.RunPlan(heavy); err != nil {
		t.Fatal(err)
	}
	if held := sc.Retained(); held <= exec.ScratchRetainBytes {
		t.Fatalf("31c's working set is %d B, not past the %d B bound: the release below sheds nothing", held, exec.ScratchRetainBytes)
	}
	sc.Release()
	if held := sc.Retained(); held > exec.ScratchRetainBytes || held < exec.ScratchRetainBytes/2 {
		t.Errorf("scratch released after 31c retains %d B, want at most the %d B bound and no less than half of it (shed, not dropped)",
			held, exec.ScratchRetainBytes)
	}
}

// TestReleasedScratchPinsNoStorage runs steadyQuery host-native — scans and
// a BNLI step's secondary-index seeks — on one scratch and releases it: the
// scan iterator and the index seeker must then hold no SST, view, decoded
// block or access of the finished query, the same rule the pointer slabs
// follow.
func TestReleasedScratchPinsNoStorage(t *testing.T) {
	ds := jobDataset(t)
	p, err := optimizer.New(ds.Cat, ds.Model).BuildPlan(job.QueryByName(steadyQuery))
	if err != nil {
		t.Fatal(err)
	}
	sc := &exec.Scratch{}
	eng := &exec.Engine{Cat: ds.Cat, TL: vclock.NewTimeline("host"), R: hw.HostRates(ds.Model), Scratch: sc,
		Cache: sc.BlockCache(ds.DB.BlockCacheBytes(ds.Model.HostCacheFraction))}
	if _, err := eng.RunPlan(p); err != nil {
		t.Fatal(err)
	}
	if exec.ReadPathReference(sc) == "" {
		t.Fatalf("%s ran without the scratch's iterator or seeker", steadyQuery)
	}
	sc.Release()
	if path := exec.ReadPathReference(sc); path != "" {
		t.Errorf("released scratch still references the finished query at %s", path)
	}
}

// BenchmarkSteadyStateQuery is one median-band JOB query, planned once, run
// on a warm executor host-native, at H1 and hybrid on a 4-device fleet: B/op
// is what a query allocates beyond its prepared plan and recycled scratches.
func BenchmarkSteadyStateQuery(b *testing.B) {
	for _, r := range steadyRuns(b, jobDataset(b)) {
		b.Run(r.name, func(b *testing.B) {
			if err := r.run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceEnabled reports whether this test binary was built with the race
// detector (read from the build settings, as internal/harness does).
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
