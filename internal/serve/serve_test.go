package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/fault"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/vclock"
)

var (
	dsOnce sync.Once
	dsInst *job.Dataset
	ctInst *CostTable
	dsErr  error
)

// fixture loads the JOB dataset once and measures the full workload's cost
// table (shared by every test; Measure itself is deterministic).
func fixture(t testing.TB) (*job.Dataset, *CostTable) {
	t.Helper()
	dsOnce.Do(func() {
		dsInst, dsErr = job.Load(0.004, hw.Cosmos())
		if dsErr != nil {
			return
		}
		ctInst, dsErr = Measure(dsInst, job.Queries(), 8)
	})
	if dsErr != nil {
		t.Fatalf("fixture: %v", dsErr)
	}
	return dsInst, ctInst
}

func subset(n int) []*query.Query {
	qs := job.Queries()
	if n > len(qs) {
		n = len(qs)
	}
	return qs[:n]
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(2, 2) // 2 tokens/s, burst 2, starts full
	now := vclock.Time(0)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst tokens should admit two requests")
	}
	if b.allow(now) {
		t.Fatal("third request at t=0 should be rejected")
	}
	now = now.Add(500 * vclock.Millisecond) // refills 1 token
	if !b.allow(now) {
		t.Fatal("want one token after 500ms at 2 qps")
	}
	if b.allow(now) {
		t.Fatal("second request after refill should be rejected")
	}
	disabled := newTokenBucket(0, 1)
	for i := 0; i < 100; i++ {
		if !disabled.allow(now) {
			t.Fatal("rate 0 disables the quota")
		}
	}
}

func TestArrivalSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"poisson", "poisson:250", "poisson:12.5",
		"burst:100:50:0.2:5", "burst:80:10:0.5:1",
		"trace:0,1,2.5,10",
	} {
		spec, err := ParseArrival(s)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
	for _, s := range []string{
		"", "fifo", "poisson:-1", "poisson:1:2",
		"burst:100:0:0.2:5", "burst:100:50:1.5:5", "burst:100:50:0.2:0.5",
		"burst:100:50", "trace:", "trace:1,x",
	} {
		if _, err := ParseArrival(s); err == nil {
			t.Fatalf("ParseArrival(%q) should fail", s)
		}
	}
}

func TestArrivalTimesDeterministic(t *testing.T) {
	spec, err := ParseArrival("burst:200:20:0.25:4")
	if err != nil {
		t.Fatal(err)
	}
	horizon := vclock.Duration(500 * vclock.Millisecond)
	gen := func() []vclock.Time {
		rng := rand.New(rand.NewSource(tenantSeed(42, 1)))
		return spec.times(rng, spec.Rate, horizon)
	}
	a, b := gen(), gen()
	if len(a) == 0 {
		t.Fatal("burst process generated no arrivals")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed must reproduce the identical arrival stream")
	}
	for i, at := range a {
		if at >= vclock.Time(horizon) {
			t.Fatalf("arrival %d at %v beyond horizon", i, at)
		}
		if i > 0 && at < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if s2 := tenantSeed(42, 2); s2 == tenantSeed(42, 1) || s2 < 0 {
		t.Fatal("tenant seeds must differ and stay non-negative")
	}
}

// TestGenArrivalsOrder is the arrival stream's ordering law: genArrivals
// returns every tenant's generated arrivals exactly once, each at the instant
// its tenant stream gave its sequence number and with its statement and cost
// resolved, in strictly increasing (arrival, tenant, seq) order. A trace whose
// offsets are unsorted, repeat within a tenant and tie across all three
// tenants exercises every part of the key (one offset lies past the horizon).
func TestGenArrivalsOrder(t *testing.T) {
	burst, err := ParseArrival("burst:200:20:0.25:4")
	if err != nil {
		t.Fatal(err)
	}
	trace := ArrivalSpec{Kind: "trace", Offsets: []vclock.Duration{900 * vclock.Millisecond}}
	for i := range 48 {
		trace.Offsets = append(trace.Offsets, vclock.Duration(i*7%5)*vclock.Millisecond)
	}
	for _, spec := range []ArrivalSpec{{Kind: "poisson", Rate: 300}, burst, trace} {
		t.Run(spec.Kind, func(t *testing.T) {
			cfg := serveCfg(subset(16), sched.Adaptive, 9)
			cfg.Arrival = spec
			s := newServer(t, cfg)
			arr := s.genArrivals()
			var want int
			for ti, tc := range s.cfg.Tenants {
				rate := tc.RateQPS
				if rate <= 0 {
					rate = spec.Rate
				}
				times := spec.times(rand.New(rand.NewSource(tenantSeed(s.cfg.Seed, ti))), rate, s.cfg.Horizon)
				want += len(times)
				seen := make([]bool, len(times))
				for _, r := range arr {
					if r.tenant != ti {
						continue
					}
					if seen[r.seq] {
						t.Fatalf("tenant %d seq %d generated twice", ti, r.seq)
					}
					seen[r.seq] = true
					if r.arrival != times[r.seq] {
						t.Fatalf("tenant %d seq %d arrives at %v, its stream says %v", ti, r.seq, r.arrival, times[r.seq])
					}
					prep, _ := s.Session(ti).Stmt(r.name)
					qc, _ := s.ct.Cost(r.name)
					if r.prep != prep || r.qc != qc || r.cost != qc.Host || r.prio != sched.Priority(r.seq%3) {
						t.Fatalf("tenant %d seq %d (%s) is not resolved to its statement and cost", ti, r.seq, r.name)
					}
				}
			}
			if len(arr) != want || want == 0 {
				t.Fatalf("%d arrivals, the tenant streams hold %d", len(arr), want)
			}
			for i := 1; i < len(arr); i++ {
				a, b := arr[i-1], arr[i]
				if a.arrival > b.arrival || a.arrival == b.arrival &&
					(a.tenant > b.tenant || a.tenant == b.tenant && a.seq >= b.seq) {
					t.Fatalf("arrival %d (%v, t%d, #%d) is not after (%v, t%d, #%d)",
						i, b.arrival, b.tenant, b.seq, a.arrival, a.tenant, a.seq)
				}
			}
		})
	}
}

func TestTenantQueueAging(t *testing.T) {
	tq := sched.NewQueue[*request](16)
	push := func(prio sched.Priority, at vclock.Time) *request {
		r := &request{prio: prio, arrival: at}
		tq.Push(prio, r)
		return r
	}
	oldBatch := push(sched.Batch, 1)
	for i := 2; i <= 5; i++ {
		push(sched.High, vclock.Time(i))
	}
	for i := 0; i < 3; i++ {
		if got, _ := tq.Pop(); got.prio != sched.High {
			t.Fatalf("pop %d: want high-priority, got %v", i, got.prio)
		}
	}
	if got, _ := tq.Pop(); got != oldBatch {
		t.Fatalf("4th pop must take the oldest request (aging), got %+v", got)
	}
	if got, ok := tq.Peek(); !ok || got.arrival != 5 {
		t.Fatalf("peek after aging pop: %+v", got)
	}
}

func TestWFQProportionalShare(t *testing.T) {
	tenants := []TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}}
	w := newWFQ(tenants, 64)
	for i := 0; i < 30; i++ {
		w.push(&request{tenant: 0, seq: i, cost: quantum})
		w.push(&request{tenant: 1, seq: i, cost: quantum})
	}
	counts := [2]int{}
	for i := 0; i < 30; i++ {
		r := w.pick()
		counts[r.tenant]++
	}
	if counts[0] != 10 || counts[1] != 20 {
		t.Fatalf("DRR with weights 1:2 over equal-cost work: got %v, want [10 20]", counts)
	}
}

func TestPlanCacheLRU(t *testing.T) {
	m := obs.NewRegistry()
	c := NewPlanCache(2, m)
	d := &optimizer.Decision{}
	a, b, cc := c.Intern("a"), c.Intern("b"), c.Intern("c")
	if again := c.Intern("b"); again != b || a == b || b == cc || a == cc {
		t.Fatalf("interned ids a=%d b=%d (again %d) c=%d, want distinct texts distinct and b stable", a, b, again, cc)
	}
	c.Put(a, d, 1)
	c.Put(b, d, 2)
	if _, ok := c.Get(a, 3); !ok {
		t.Fatal("a should be cached")
	}
	// b is now LRU; inserting c must evict b, not a.
	c.Put(cc, d, 4)
	if _, ok := c.Get(b, 5); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get(a, 6); !ok {
		t.Fatal("a should have survived eviction")
	}
	if k, at, ok := c.Oldest(); !ok || k != cc || at != 4 {
		t.Fatalf("oldest = %v@%v, want c (%d)@4", k, at, cc)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if h, ms, ev := m.Counter("serve.cache.hit").Value(), m.Counter("serve.cache.miss").Value(), m.Counter("serve.cache.evict").Value(); h != 2 || ms != 1 || ev != 1 {
		t.Fatalf("counters hit=%d miss=%d evict=%d, want 2/1/1", h, ms, ev)
	}
}

// TestPlanCacheForeignIDMisses: an id the cache did not intern — the zero
// StmtID of an unprepared statement, or another cache's id — misses and is
// never cached, even when it equals an id the cache holds a plan under.
func TestPlanCacheForeignIDMisses(t *testing.T) {
	m := obs.NewRegistry()
	c := NewPlanCache(2, m)
	a := c.Intern("a")
	if a == 0 {
		t.Fatal("Intern handed out the zero id")
	}
	c.Put(a, &optimizer.Decision{}, 1)
	for _, k := range []StmtID{0, -1, a + 1, 1 << 30} {
		c.Put(k, &optimizer.Decision{}, 2)
		if _, ok := c.Get(k, 3); ok {
			t.Fatalf("id %d, never interned, hit", k)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1: foreign ids were cached", c.Len())
	}
	if h, ms := m.Counter("serve.cache.hit").Value(), m.Counter("serve.cache.miss").Value(); h != 0 || ms != 4 {
		t.Fatalf("counters hit=%d miss=%d, want 0/4", h, ms)
	}
}

func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	ds, ct := fixture(t)
	s, err := New(ds, ct, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestPlanCacheCorrectness is the cache acceptance test: a hit returns a plan
// byte-identical to a cold compile and executes identically.
func TestPlanCacheCorrectness(t *testing.T) {
	ds, _ := fixture(t)
	s := newServer(t, Config{Queries: subset(6), Tenants: DefaultTenants(2, 0)})
	name := subset(6)[0].Name

	cold, err := s.PlanFor(0, name, 1)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s.PlanFor(0, name, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hit != cold {
		t.Fatal("second lookup must be served from the cache (same decision)")
	}
	// Tenant 1 prepared the same statement: normalized SQL shares the entry.
	other, err := s.PlanFor(1, name, 3)
	if err != nil {
		t.Fatal(err)
	}
	if other != cold {
		t.Fatal("equivalent statements from different sessions must share the cache entry")
	}
	if h := s.Cache().hits.Value(); h != 2 {
		t.Fatalf("cache hits = %d, want 2", h)
	}

	// Byte-identical to an independent cold compile, and executes identically.
	prep, _ := s.Session(0).Stmt(name)
	fresh, err := optimizer.New(ds.Cat, ds.Model).Decide(prep.Query)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Plan.String() != fresh.Plan.String() {
		t.Fatal("cached plan differs from cold compile")
	}
	ex := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	repCached, err := ex.Run(cold.Plan, coop.DecisionStrategy(cold))
	if err != nil {
		t.Fatal(err)
	}
	repFresh, err := ex.Run(fresh.Plan, coop.DecisionStrategy(fresh))
	if err != nil {
		t.Fatal(err)
	}
	if repCached.Elapsed != repFresh.Elapsed {
		t.Fatalf("cached plan executed in %v, cold compile in %v", repCached.Elapsed, repFresh.Elapsed)
	}
}

func TestMeasureWorkerInvariance(t *testing.T) {
	ds, _ := fixture(t)
	// 31c is the heaviest query: its host-native and full-NDP runs are
	// separate work items that run side by side.
	qs := append(subset(16), job.QueryByName("31c"))
	a, err := Measure(ds, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(ds, qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		ca, _ := a.Cost(q.Name)
		cb, _ := b.Cost(q.Name)
		if ca.Host != cb.Host || ca.Dec != cb.Dec || ca.NDP != cb.NDP ||
			ca.NDPFeasible != cb.NDPFeasible || ca.Decided != cb.Decided ||
			ca.Decision.Plan.String() != cb.Decision.Plan.String() {
			t.Fatalf("%s: cost table differs across worker counts:\n%+v\n%+v", q.Name, ca, cb)
		}
	}
	if a.MeanHost() != b.MeanHost() {
		t.Fatal("mean host cost differs across worker counts")
	}

}

// BenchmarkMeasure is serving start-up's cost measurement over the whole JOB
// workload at scale 0.01 (every query decided, then every host-native,
// full-NDP and decided-split run executed once), with one worker and with
// two.
func BenchmarkMeasure(b *testing.B) {
	ds, err := job.Load(0.01, hw.Cosmos())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Measure(ds, job.Queries(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunAllocsPerRequest pins the serving loop's allocation budget: once the
// plan cache is warm, a Run — quota and deadline rejections included —
// allocates less than one object per offered request (per-run setup only).
func TestRunAllocsPerRequest(t *testing.T) {
	cfg := serveCfg(subset(16), sched.Adaptive, 7)
	cfg.UseDeadlines = true
	cfg.Arrival.Rate = 2000 // past capacity: requests queue, overflow and blow deadlines
	cfg.QueueDepth = 8
	s := newServer(t, cfg)
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if res.QuotaRejected == 0 || res.QueueRejected == 0 || res.DeadlineRejected == 0 {
		t.Fatalf("the run rejects nothing, so its rejection paths go unmeasured: %+v", res)
	}
	per := allocs / float64(res.Requests)
	t.Logf("%.0f allocations for %d requests (%d quota, %d queue-full, %d deadline rejections): %.3f per request",
		allocs, res.Requests, res.QuotaRejected, res.QueueRejected, res.DeadlineRejected, per)
	if per >= 1 {
		t.Fatalf("a warm Run allocated %.0f objects for %d requests (%.2f per request), want < 1",
			allocs, res.Requests, per)
	}
}

// BenchmarkServeRun times a warm open-loop Run over the full workload: three
// default tenants at 150 qps each for 20 virtual seconds, plan cache warm.
func BenchmarkServeRun(b *testing.B) {
	s := newServer(b, Config{
		Tenants: DefaultTenants(3, 50*vclock.Millisecond),
		Arrival: ArrivalSpec{Kind: "poisson", Rate: 150},
		Horizon: 20 * vclock.Second,
	})
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	requests := 0
	for i := 0; i < b.N; i++ {
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		requests += res.Requests
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(requests), "ns/request")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(requests), "allocs/request")
}

func TestAdmitTypedErrors(t *testing.T) {
	s := newServer(t, Config{
		Queries:    subset(4),
		Tenants:    []TenantConfig{{Name: "t0", QuotaQPS: 0.001, Burst: 1}},
		QueueDepth: 1,
	})
	w := newWFQ(s.cfg.Tenants, s.cfg.QueueDepth)
	bucket := newTokenBucket(s.cfg.Tenants[0].QuotaQPS, s.cfg.Tenants[0].Burst)
	var acc tenantAcc
	r := &request{tenant: 0, name: subset(4)[0].Name, cost: vclock.Millisecond}
	if err := s.admit(r, 0, w, &bucket, &acc); err != nil {
		t.Fatalf("first request should pass the burst token: %v", err)
	}
	err := s.admit(r, 0, w, &bucket, &acc)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("dry token bucket: got %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, sched.ErrQueueFull) {
		t.Fatal("quota rejection must not read as queue-full")
	}
	// Disable the quota: the depth-1 queue already holds one request.
	open := newTokenBucket(0, 1)
	err = s.admit(r, 0, w, &open, &acc)
	if !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("full tenant queue: got %v, want sched.ErrQueueFull", err)
	}
	if errors.Is(err, ErrQuotaExceeded) {
		t.Fatal("queue-full rejection must not read as quota")
	}
	if acc.quotaRej != 1 || acc.queueRej != 1 || acc.requests != 3 {
		t.Fatalf("accounting: %+v", acc)
	}
}

func TestQuantile(t *testing.T) {
	m := obs.NewRegistry()
	h := m.Histogram("q", []float64{10, 20, 30})
	if got := Quantile(h, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for _, v := range []float64{5, 15, 15, 25} {
		h.Observe(v)
	}
	if got := Quantile(h, 0.5); got != 20 {
		t.Fatalf("p50 = %v, want 20", got)
	}
	if got := Quantile(h, 1.0); got != 30 {
		t.Fatalf("p100 = %v, want 30", got)
	}
	h.Observe(99) // overflow bucket
	if got := Quantile(h, 1.0); !math.IsInf(float64(got), 1) {
		t.Fatalf("overflow quantile = %v, want +Inf", got)
	}
}

func serveCfg(queries []*query.Query, policy sched.Policy, seed int64) Config {
	return Config{
		Queries: queries,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 4, SLO: 5 * vclock.Millisecond, Skew: 1.3},
			{Name: "silver", Weight: 2, SLO: 10 * vclock.Millisecond, Skew: 1.3},
			{Name: "bronze", Weight: 1, SLO: 20 * vclock.Millisecond, Skew: 1.3, QuotaQPS: 120, Burst: 4},
		},
		Arrival: ArrivalSpec{Kind: "poisson", Rate: 250},
		Policy:  policy,
		Horizon: 500 * vclock.Millisecond,
		Seed:    seed,
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() (string, string) {
		s := newServer(t, serveCfg(subset(16), sched.Adaptive, 7))
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res), s.Registry().Dump()
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 {
		t.Fatalf("results differ across identical runs:\n%s\n%s", r1, r2)
	}
	if d1 != d2 {
		t.Fatal("metrics dumps differ across identical runs")
	}
	if !strings.Contains(d1, "serve.cache.hit") || !strings.Contains(d1, "serve.latency.ns.gold") {
		t.Fatalf("dump is missing serve metrics:\n%s", d1)
	}
	s3 := newServer(t, serveCfg(subset(16), sched.Adaptive, 8))
	res3, err := s3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", res3) == r1 {
		t.Fatal("different seeds should produce different runs")
	}
}

func TestRunAccounting(t *testing.T) {
	s := newServer(t, serveCfg(subset(16), sched.Adaptive, 11))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Completed == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.Completed+res.QuotaRejected+res.QueueRejected != res.Requests {
		t.Fatalf("request conservation: %+v", res)
	}
	m := s.Registry()
	if got := m.Counter("serve.requests").Value(); got != int64(res.Requests) {
		t.Fatalf("serve.requests = %d, want %d", got, res.Requests)
	}
	if got := m.Counter("serve.completed").Value(); got != int64(res.Completed) {
		t.Fatalf("serve.completed = %d, want %d", got, res.Completed)
	}
	var misses int
	for _, tr := range res.Tenants {
		misses += tr.SLOMissed
		if tr.Completed > 0 && (tr.P50 <= 0 || tr.P95 < tr.P50 || tr.P99 < tr.P95) {
			t.Fatalf("%s: quantiles not monotone: %+v", tr.Name, tr)
		}
		if got := m.Counter("serve.slo.miss." + tr.Name).Value(); got != int64(tr.SLOMissed) {
			t.Fatalf("%s: slo miss counter %d != result %d", tr.Name, got, tr.SLOMissed)
		}
	}
	if res.Makespan <= 0 || res.ThroughputQPS <= 0 {
		t.Fatalf("makespan/throughput: %+v", res)
	}
}

// TestCacheSteadyState is the hit-rate acceptance: after the cold compiles a
// workload-sized cache serves >90% of lookups, and a warm second run misses
// never.
func TestCacheSteadyState(t *testing.T) {
	cfg := serveCfg(subset(16), sched.Adaptive, 3)
	cfg.Horizon = vclock.Second
	s := newServer(t, cfg)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := res.CacheHits + res.CacheMisses
	if total == 0 {
		t.Fatal("no cache traffic")
	}
	if rate := float64(res.CacheHits) / float64(total); rate <= 0.9 {
		t.Fatalf("steady-state hit rate %.3f (hits=%d misses=%d), want > 0.9", rate, res.CacheHits, res.CacheMisses)
	}
	if res.CacheMisses > int64(len(subset(16))) {
		t.Fatalf("misses %d exceed distinct statements %d (cap is large enough)", res.CacheMisses, len(subset(16)))
	}
	res2, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times", res2.CacheMisses)
	}
}

// TestDeadlineErrorDistinct pins the serving-layer admission-error contract:
// a deadline shed is its own typed sentinel, distinguishable (errors.Is) from
// quota rejections, queue backpressure and scheduler ticket expiry.
func TestDeadlineErrorDistinct(t *testing.T) {
	s := newServer(t, Config{
		Queries:      subset(4),
		Tenants:      []TenantConfig{{Name: "t0", SLO: vclock.Microsecond}},
		UseDeadlines: true,
	})
	var acc tenantAcc
	r := &request{tenant: 0, name: subset(4)[0].Name, arrival: 0}
	late := vclock.Time(vclock.Millisecond)
	err := s.shed(r, late, &acc)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("shed past deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrQuotaExceeded) || errors.Is(err, sched.ErrQueueFull) || errors.Is(err, sched.ErrExpired) {
		t.Fatalf("deadline shed must not read as quota/queue-full/sched-expired: %v", err)
	}
	if acc.deadlineRej != 1 {
		t.Fatalf("deadlineRej = %d, want 1", acc.deadlineRej)
	}
	// Within the deadline: no shed.
	if err := s.shed(r, 100, &acc); err != nil {
		t.Fatalf("placement inside deadline shed anyway: %v", err)
	}
	// Deadlines off: never shed.
	s.cfg.UseDeadlines = false
	if err := s.shed(r, late, &acc); err != nil {
		t.Fatalf("UseDeadlines off must never shed: %v", err)
	}
}

// TestDeadlineShedding runs the open-loop simulation with hard deadlines on:
// under overload a tight-SLO tenant sheds work (DeadlineRejected > 0), the
// request-conservation identity extends to the new class, every completed
// request of a shedding tenant met its deadline, and the run stays
// byte-deterministic.
func TestDeadlineShedding(t *testing.T) {
	cfg := serveCfg(subset(16), sched.ForceHost, 7)
	cfg.UseDeadlines = true
	// Saturate the host lanes so queue waits push completions past the SLOs.
	cfg.Arrival.Rate = 4000
	for i := range cfg.Tenants {
		cfg.Tenants[i].SLO = 2 * vclock.Millisecond
		cfg.Tenants[i].QuotaQPS = 0
	}
	run := func() (*Result, string) {
		s := newServer(t, cfg)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, fmt.Sprintf("%+v", res)
	}
	res, r1 := run()
	_, r2 := run()
	if r1 != r2 {
		t.Fatalf("deadline runs differ across identical configs:\n%s\n%s", r1, r2)
	}
	if res.DeadlineRejected == 0 {
		t.Fatalf("overloaded force-host run with hard deadlines shed nothing: %+v", res)
	}
	if res.Completed+res.QuotaRejected+res.QueueRejected+res.DeadlineRejected != res.Requests {
		t.Fatalf("request conservation with deadline shedding: %+v", res)
	}
	for i, tr := range res.Tenants {
		if cfg.Tenants[i].SLO > 0 && tr.DeadlineRejected > 0 && tr.SLOMissed > 0 {
			t.Fatalf("%s: hard deadlines on, yet a dispatched request missed its SLO: %+v", tr.Name, tr)
		}
	}
	off := cfg
	off.UseDeadlines = false
	s3 := newServer(t, off)
	res3, err := s3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res3.DeadlineRejected != 0 {
		t.Fatalf("UseDeadlines off still shed: %+v", res3)
	}
}

// TestMeasureFleet covers the fleet-aware cost measurement: fault-free fleet
// measurement agrees with the coop table on the host column, a device-scoped
// stall inflates the measured device paths (and only those), hedging caps the
// inflation, every fleet result fingerprint-matches host execution (or the
// measurement errors), and the table is byte-identical across worker counts.
func TestMeasureFleet(t *testing.T) {
	ds, ct := fixture(t)
	qs := subset(12)
	desc, err := fleet.Build(ds.Cat, 4, "range")
	if err != nil {
		t.Fatal(err)
	}
	newFX := func(spec string, hedge bool) *fleet.Executor {
		fx := fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
		if spec != "" {
			pl, err := fault.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			fx.Faults = pl
		}
		if hedge {
			fx.Hedge = fleet.HedgeConfig{Enabled: true}
		}
		return fx
	}

	clean, err := MeasureFleet(ds, qs, newFX("", false), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		qc, _ := clean.Cost(q.Name)
		ref, _ := ct.Cost(q.Name)
		if qc.Host != ref.Host {
			t.Fatalf("%s: fleet-measured host %v != coop-measured host %v", q.Name, qc.Host, ref.Host)
		}
	}

	stalled, err := MeasureFleet(ds, qs, newFX("dev1:dev.stall=2ms", false), 8)
	if err != nil {
		t.Fatal(err)
	}
	inflated := 0
	for _, q := range qs {
		sc, _ := stalled.Cost(q.Name)
		cc, _ := clean.Cost(q.Name)
		if sc.Host != cc.Host {
			t.Fatalf("%s: a device-scoped stall moved the host column: %v vs %v", q.Name, sc.Host, cc.Host)
		}
		if sc.NDPFeasible && sc.NDP > cc.NDP {
			inflated++
		}
	}
	if inflated == 0 {
		t.Fatal("dev1:dev.stall=2ms inflated no device path across the subset")
	}

	hedged, err := MeasureFleet(ds, qs, newFX("dev1:dev.stall=2ms", true), 8)
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, q := range qs {
		hc, _ := hedged.Cost(q.Name)
		sc, _ := stalled.Cost(q.Name)
		if hc.NDPFeasible && hc.NDP < sc.NDP {
			capped++
		}
		if hc.NDPFeasible && hc.NDP > sc.NDP {
			t.Fatalf("%s: hedging made the stalled NDP path slower: %v > %v", q.Name, hc.NDP, sc.NDP)
		}
	}
	if capped == 0 {
		t.Fatal("hedging capped no stalled device path across the subset")
	}

	again, err := MeasureFleet(ds, qs, newFX("dev1:dev.stall=2ms", true), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		a, _ := again.Cost(q.Name)
		b, _ := hedged.Cost(q.Name)
		if a.Decided != b.Decided || a.Host != b.Host || a.Dec != b.Dec ||
			a.NDP != b.NDP || a.NDPFeasible != b.NDPFeasible {
			t.Fatalf("%s: MeasureFleet differs across worker counts: %+v vs %+v", q.Name, a, b)
		}
	}
}

// dispatch is one request's placement as a runner saw it.
type dispatch struct {
	tenant, seq       int
	strat             coop.Strategy
	start, completion vclock.Time
}

// recording wraps a runner and logs every dispatch.
type recording struct {
	inner sched.Runner[*request]
	log   []dispatch
}

func (rc *recording) Candidates(r *request, now vclock.Time, buf []sched.Candidate) ([]sched.Candidate, error) {
	return rc.inner.Candidates(r, now, buf)
}

func (rc *recording) Run(r *request, c sched.Candidate, ch sched.Choice) (vclock.Duration, error) {
	elapsed, err := rc.inner.Run(r, c, ch)
	rc.log = append(rc.log, dispatch{r.tenant, r.seq, c.Strategy, ch.Start, ch.Start.Add(elapsed)})
	return elapsed, err
}

// executing offers exactly what replay offers but runs every dispatched
// (query, strategy) for real, at dispatch, on one executor shared by the whole
// run — and books what that execution measured, not what the table says.
type executing struct {
	replay
	ex *coop.Executor
}

func (e executing) Run(r *request, c sched.Candidate, _ sched.Choice) (vclock.Duration, error) {
	qc, _ := e.s.ct.Cost(r.name)
	rep, err := e.ex.Run(qc.Decision.Plan, c.Strategy)
	if err != nil {
		return 0, err
	}
	return rep.Elapsed, nil
}

// TestReplayMatchesExecution is the seam check on the serving numbers: one
// small open-loop scenario played through the replay runner and through a
// runner that executes every dispatched request for real must agree on every
// request's start and completion instant, and so on the whole Result. The SLO
// tables rest on service times being load-independent — Measure runs each
// (query, strategy) once, in isolation, and Run replays it under any load.
// That holds because every execution builds its host and device block caches
// cold (coop.go hostEngine, device.go Launch) and its own timelines; this
// test fails the day someone shares one across runs.
func TestReplayMatchesExecution(t *testing.T) {
	ds, ct := fixture(t)
	qs := subset(20)
	cfg := Config{
		Queries: qs,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 3, SLO: 5 * vclock.Millisecond, Skew: 1.3},
			{Name: "bronze", Weight: 1, SLO: 20 * vclock.Millisecond, Skew: 1.3},
		},
		// 2.5× the host pool's capacity over the subset, so requests queue and
		// adaptive spills onto the device: both kinds of lane are contended.
		Arrival: ArrivalSpec{Kind: "poisson", Rate: 1.25 * ct.HostCapacityQPS(ds.Model.HostCores)},
		Policy:  sched.Adaptive,
		Seed:    5,
	}
	cfg.Horizon = vclock.Duration(150 / cfg.Arrival.Rate * float64(vclock.Second))
	play := func(real bool) (*Result, []dispatch, string) {
		s := newServer(t, cfg)
		rc := &recording{inner: s.runner}
		if real {
			rc.inner = executing{replay{s}, coop.NewExecutor(ds.Cat, ds.DB, ds.Model)}
		}
		s.runner = rc
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rc.log, s.Registry().Dump()
	}
	want, replayed, wantDump := play(false)
	got, executed, gotDump := play(true)

	if want.Requests < 250 || want.Requests > 350 || want.Completed != want.Requests {
		t.Fatalf("scenario drifted from ≈300 completed requests: %+v", want)
	}
	onDevice := 0
	for _, d := range replayed {
		if d.strat.Kind != coop.HostNative {
			onDevice++
		}
	}
	if onDevice == 0 || onDevice == len(replayed) {
		t.Fatalf("scenario does not exercise both pools: %d of %d dispatches device-bound", onDevice, len(replayed))
	}
	if len(executed) != len(replayed) {
		t.Fatalf("%d dispatches executed, %d replayed", len(executed), len(replayed))
	}
	var worst vclock.Duration
	for i := range replayed {
		if executed[i] != replayed[i] {
			err := max(executed[i].completion.Sub(replayed[i].completion), replayed[i].completion.Sub(executed[i].completion))
			worst = max(worst, err)
			t.Errorf("dispatch %d: executed %+v, replayed %+v", i, executed[i], replayed[i])
		}
	}
	if t.Failed() {
		t.Fatalf("replay is not exact: worst per-request completion error %v", worst)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("results differ:\nexecuted %+v\nreplayed %+v", got, want)
	}
	if gotDump != wantDump {
		t.Fatal("metrics dumps differ between executed and replayed runs")
	}
}

// FuzzArrivalSpecRoundTrip checks the -arrival flag parser on arbitrary text:
// no input panics, and a spec ParseArrival accepts renders to a canonical
// form that ParseArrival accepts again and renders unchanged. Seeds:
// testdata/fuzz/FuzzArrivalSpecRoundTrip.
func FuzzArrivalSpecRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseArrival(s)
		if err != nil {
			return
		}
		canon := spec.String()
		spec2, err := ParseArrival(canon)
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %q: %v", s, canon, err)
		}
		if again := spec2.String(); again != canon {
			t.Fatalf("String is not a fixed point for %q: %q then %q", s, canon, again)
		}
	})
}
