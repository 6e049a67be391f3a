// Package serve is the serving front door over the hybridNDP stack: SQL
// sessions with prepared statements, a shared bounded plan cache, per-tenant
// token-bucket quotas, weighted fair queuing across tenants, and open-loop
// arrival generation with per-tenant SLO accounting.
//
// The whole layer is a deterministic discrete-event simulation on virtual
// time. Wall-clock parallelism exists only in Measure, which executes each
// distinct (query, strategy) pair once for real — independently
// deterministic, merged into pre-sized slots. The serving loop itself is
// single-threaded: arrivals, cache operations, fair-queue picks, lane
// placement and every metric recording happen in one goroutine in virtual-
// time order, which is what makes SLO tables and metrics dumps byte-identical
// across worker counts (the fleet/chaos determinism contract, extended to
// serving). Requests replay the memoized virtual service times; the queueing,
// caching and admission behavior — the object of study here — is simulated
// exactly on top of them.
//
// Placement is not decided here: Run feeds the one scheduler loop of
// internal/sched. The ledger has one host lane per host core and one NDP
// command slot; host-native runs occupy a host lane, full-NDP runs the command
// slot, hybrid splits one of each for the run's duration (the host side of a
// cooperative run drives the device side). The replay runner offers the host
// path and one device path — under force-ndp full NDP whenever the plan fits
// device memory, otherwise the decided strategy when it is device-bound or,
// for host-decided queries, full NDP as adaptive's spill path — with their
// measured service times, and sched.Place takes the earliest completion,
// breaking ties toward the host.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/sql"
	"hybridndp/internal/vclock"
)

// TenantConfig describes one tenant's admission contract.
type TenantConfig struct {
	Name string
	// Weight is the deficit-round-robin share multiplier (≥ 1).
	Weight int
	// RateQPS is the tenant's offered arrival rate; 0 falls back to the
	// arrival spec's default rate.
	RateQPS float64
	// QuotaQPS is the token-bucket refill rate; 0 disables the quota.
	QuotaQPS float64
	// Burst is the token-bucket capacity (minimum 1).
	Burst int
	// SLO is the per-request virtual latency objective; 0 disables
	// miss accounting for the tenant.
	SLO vclock.Duration
	// Skew is the Zipf exponent for query selection (> 1 activates skew;
	// anything else selects uniformly). Tenants rotate the Zipf ranking so
	// their hot sets differ.
	Skew float64
}

// DefaultTenants builds n tenants with cycling 1/2/4 weights, a common SLO
// and moderate Zipf skew over the workload.
func DefaultTenants(n int, slo vclock.Duration) []TenantConfig {
	out := make([]TenantConfig, n)
	for i := range out {
		out[i] = TenantConfig{
			Name:   fmt.Sprintf("t%d", i),
			Weight: 1 << uint(i%3),
			SLO:    slo,
			Skew:   1.3,
		}
	}
	return out
}

// Config sizes one serving run.
type Config struct {
	Tenants []TenantConfig
	Arrival ArrivalSpec
	// Policy selects adaptive placement or one of the forced baselines.
	Policy sched.Policy
	// QueueDepth bounds each tenant's admission queue across the three
	// priority classes (default 64).
	QueueDepth int
	// PlanCacheCap bounds the shared plan cache (default 256 entries).
	PlanCacheCap int
	// Horizon is the arrival-generation window; queued work drains past it
	// (default 1 virtual second).
	Horizon vclock.Duration
	// Seed drives arrival generation and query selection (default 1).
	Seed int64
	// Metrics receives counters/histograms; nil uses a private registry
	// (the server always needs one for SLO accounting).
	Metrics *obs.Registry
	// Queries is the workload (default: the full 113-query JOB set).
	Queries []*query.Query
	// UseDeadlines turns tenant SLOs into hard per-request deadlines
	// (deadline = arrival + SLO): a picked request whose earliest feasible
	// completion already blows its deadline is shed (ErrDeadlineExceeded,
	// counted per tenant) instead of burning a lane on work nobody can use.
	// Tenants with SLO 0 are never shed. Off by default — SLOs then stay
	// observational, as before.
	UseDeadlines bool
}

func (c Config) withDefaults() Config {
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants(2, 20*vclock.Millisecond)
	} else {
		c.Tenants = append([]TenantConfig(nil), c.Tenants...)
	}
	for i := range c.Tenants {
		if c.Tenants[i].Name == "" {
			c.Tenants[i].Name = fmt.Sprintf("t%d", i)
		}
		if c.Tenants[i].Weight < 1 {
			c.Tenants[i].Weight = 1
		}
	}
	if c.Arrival.Kind == "" {
		c.Arrival = DefaultArrival()
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.PlanCacheCap < 1 {
		c.PlanCacheCap = 256
	}
	if c.Horizon <= 0 {
		c.Horizon = vclock.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Server is one serving instance: sessions per tenant, the shared plan
// cache, and the open-loop executor over a measured cost table.
type Server struct {
	cfg     Config
	model   hw.Model
	opt     *optimizer.Optimizer
	ct      *CostTable
	runner  sched.Runner[*request] // replay; the seam test swaps in one that executes
	m       *obs.Registry
	met     metrics
	cache   *PlanCache
	session []*Session
	queries []*query.Query
	costs   []*QueryCost // per workload query, in queries order
}

// New assembles a server over a loaded dataset and a measured cost table
// (Measure over the same workload). Every tenant gets a session with all
// workload queries prepared through the SQL front end — rendered to text,
// parsed back, validated — so serving exercises the full SQL-in path, not
// the hand-built query structs.
func New(ds *job.Dataset, ct *CostTable, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	queries := cfg.Queries
	if len(queries) == 0 {
		queries = job.Queries()
	}
	if len(queries) == 0 {
		return nil, errors.New("serve: empty workload")
	}
	s := &Server{
		cfg:     cfg,
		model:   ds.Model,
		opt:     optimizer.New(ds.Cat, ds.Model),
		ct:      ct,
		m:       cfg.Metrics,
		queries: queries,
	}
	if s.m == nil {
		s.m = obs.NewRegistry()
	}
	s.runner = replay{s}
	s.met = newMetrics(s.m, cfg.Tenants)
	s.cache = NewPlanCache(cfg.PlanCacheCap, s.m)
	seen := map[string]bool{}
	for _, tc := range cfg.Tenants {
		if seen[tc.Name] {
			return nil, fmt.Errorf("serve: duplicate tenant name %q", tc.Name)
		}
		seen[tc.Name] = true
	}
	for _, q := range queries {
		qc, ok := ct.Cost(q.Name)
		if !ok {
			return nil, fmt.Errorf("serve: cost table is missing workload query %s", q.Name)
		}
		s.costs = append(s.costs, qc)
	}
	for _, tc := range cfg.Tenants {
		sess := NewSession(tc.Name, ds.Cat, s.cache)
		for _, q := range queries {
			text, err := sql.Render(q)
			if err != nil {
				return nil, fmt.Errorf("serve: render %s: %w", q.Name, err)
			}
			if _, err := sess.Prepare(q.Name, text); err != nil {
				return nil, err
			}
		}
		s.session = append(s.session, sess)
	}
	return s, nil
}

// Session returns tenant i's session.
func (s *Server) Session(i int) *Session { return s.session[i] }

// Cache returns the shared plan cache.
func (s *Server) Cache() *PlanCache { return s.cache }

// Registry returns the metrics registry serving records into.
func (s *Server) Registry() *obs.Registry { return s.m }

// PlanFor resolves tenant's prepared statement through the shared plan
// cache at virtual instant now, compiling on miss.
func (s *Server) PlanFor(tenant int, stmt string, now vclock.Time) (*optimizer.Decision, error) {
	prep, ok := s.session[tenant].Stmt(stmt)
	if !ok {
		return nil, fmt.Errorf("serve: tenant %s has no prepared statement %q", s.cfg.Tenants[tenant].Name, stmt)
	}
	return s.planFor(prep, now)
}

func (s *Server) planFor(p *Prepared, now vclock.Time) (*optimizer.Decision, error) {
	if d, ok := s.cache.Get(p.Key, now); ok {
		return d, nil
	}
	d, err := s.opt.Decide(p.Query)
	if err != nil {
		return nil, fmt.Errorf("serve: compile %s: %w", p.Name, err)
	}
	s.cache.Put(p.Key, d, now)
	return d, nil
}

// TenantResult is one tenant's SLO accounting for a run.
type TenantResult struct {
	Name                                              string
	Weight                                            int
	Requests, Completed, QuotaRejected, QueueRejected int
	// DeadlineRejected counts requests shed under Config.UseDeadlines because
	// their earliest feasible completion already blew arrival + SLO.
	DeadlineRejected int
	SLOMissed        int
	P50, P95, P99    vclock.Duration
	MeanLatency      vclock.Duration
	MissRate         float64
}

// Result is one serving run's outcome.
type Result struct {
	Policy                                            sched.Policy
	Tenants                                           []TenantResult
	Requests, Completed, QuotaRejected, QueueRejected int
	DeadlineRejected                                  int
	Makespan                                          vclock.Duration
	ThroughputQPS                                     float64
	CacheHits, CacheMisses, CacheEvictions            int64
}

// replay is the runner of the open-loop simulation: it offers the
// alternatives whose service times the cost table holds and "runs" a request
// by handing the measured time back, so the loop books exactly what a real
// execution would have taken.
type replay struct{ s *Server }

// Candidates resolves the request's statement through the plan cache at
// instant now and offers the host path plus, unless the policy pins the host,
// the one device path the policy considers.
func (rp replay) Candidates(r *request, now vclock.Time, buf []sched.Candidate) ([]sched.Candidate, error) {
	s := rp.s
	dec, err := s.planFor(r.prep, now)
	if err != nil {
		return nil, err
	}
	qc := r.qc
	buf = append(buf, sched.Candidate{Strategy: coop.Strategy{Kind: coop.HostNative}, Service: qc.Host})
	switch s.cfg.Policy {
	case sched.ForceHost:
	case sched.ForceNDP:
		if qc.NDPFeasible {
			buf = append(buf, sched.Candidate{Strategy: coop.Strategy{Kind: coop.NDPOnly}, Service: qc.NDP})
		}
	default:
		if strat, svc, ok := qc.devicePathFor(coop.DecisionStrategy(dec)); ok {
			buf = append(buf, sched.Candidate{Strategy: strat, Service: svc})
		}
	}
	return buf, nil
}

// Run replays the chosen alternative's measured service time.
func (replay) Run(_ *request, c sched.Candidate, _ sched.Choice) (vclock.Duration, error) {
	return c.Service, nil
}

// devicePathFor reports the device-bound placement candidate given the
// cached decision's strategy: the decided split when device-bound, otherwise
// full NDP if feasible (adaptive's spill path under host overload).
func (qc *QueryCost) devicePathFor(decided coop.Strategy) (coop.Strategy, vclock.Duration, bool) {
	switch decided.Kind {
	case coop.Hybrid:
		return decided, qc.Dec, true
	case coop.NDPOnly:
		return decided, qc.NDP, true
	}
	if qc.NDPFeasible {
		return coop.Strategy{Kind: coop.NDPOnly}, qc.NDP, true
	}
	return coop.Strategy{}, 0, false
}

// genArrivals builds the merged, time-ordered open-loop arrival stream:
// per-tenant seeded processes, Zipf (or uniform) query selection with
// per-tenant rotation, priorities cycling high→normal→batch per tenant
// sequence number. The order is (arrival, tenant, seq) — fully deterministic
// for a given (seed, spec, tenant set). Every request lives in one slab, with
// its prepared statement and measured cost resolved, and a k-way merge of the
// tenants' runs orders them.
func (s *Server) genArrivals() []*request {
	tenants := s.cfg.Tenants
	times := make([][]vclock.Time, len(tenants))
	rngs := make([]*rand.Rand, len(tenants))
	n := 0
	for ti, tc := range tenants {
		rngs[ti] = rand.New(rand.NewSource(tenantSeed(s.cfg.Seed, ti)))
		rate := tc.RateQPS
		if rate <= 0 {
			rate = s.cfg.Arrival.Rate
		}
		times[ti] = s.cfg.Arrival.times(rngs[ti], rate, s.cfg.Horizon)
		n += len(times[ti])
	}
	slab := make([]request, 0, n)
	runs := make([][]request, len(tenants))
	preps := make([]*Prepared, len(s.queries))
	for ti, tc := range tenants {
		rng := rngs[ti]
		var zipf *rand.Zipf
		if tc.Skew > 1 && len(s.queries) > 1 {
			zipf = rand.NewZipf(rng, tc.Skew, 1, uint64(len(s.queries)-1))
		}
		for qi, q := range s.queries {
			preps[qi], _ = s.session[ti].Stmt(q.Name) // New prepared every query for every tenant
		}
		start := len(slab)
		for seq, at := range times[ti] {
			var qi int
			if zipf != nil {
				qi = int((zipf.Uint64() + uint64(ti)*37) % uint64(len(s.queries)))
			} else {
				qi = rng.Intn(len(s.queries))
			}
			qc := s.costs[qi]
			slab = append(slab, request{
				tenant: ti, seq: seq, name: s.queries[qi].Name,
				prio: sched.Priority(seq % 3), arrival: at, cost: qc.Host,
				prep: preps[qi], qc: qc,
			})
		}
		// Generated streams are in time order already; a trace's offsets
		// are in the order given, and a stable sort keeps seq order on ties.
		run := slab[start:]
		if !slices.IsSortedFunc(run, byArrival) {
			slices.SortStableFunc(run, byArrival)
		}
		runs[ti] = run
	}
	out := make([]*request, 0, n)
	for len(out) < n {
		next := -1
		for ti, run := range runs {
			if len(run) > 0 && (next < 0 || run[0].arrival < runs[next][0].arrival) {
				next = ti
			}
		}
		out = append(out, &runs[next][0])
		runs[next] = runs[next][1:]
	}
	return out
}

func byArrival(a, b request) int { return cmp.Compare(a.arrival, b.arrival) }

// tenantAcc accumulates one tenant's per-run counts.
type tenantAcc struct {
	requests, completed, quotaRej, queueRej, deadlineRej, missed int
	latSum                                                       vclock.Duration
}

// admit classifies one arrival: nil (queued), ErrQuotaExceeded (token bucket
// dry) or sched.ErrQueueFull (tenant queue at depth). Counting happens here
// so the registry sees admission in arrival order.
func (s *Server) admit(r *request, now vclock.Time, w *wfq, b *tokenBucket, acc *tenantAcc) error {
	m, tm := &s.met, &s.met.tenants[r.tenant]
	m.requests.inc()
	tm.requests.inc()
	acc.requests++
	if !b.allow(now) {
		acc.quotaRej++
		m.quotaRej.inc()
		tm.quotaRej.inc()
		return ErrQuotaExceeded
	}
	if !w.push(r) {
		acc.queueRej++
		m.queueRej.inc()
		tm.queueRej.inc()
		return sched.ErrQueueFull
	}
	m.admitted.inc()
	return nil
}

// shed classifies a picked request against its deadline (arrival + tenant
// SLO) under UseDeadlines: when the chosen placement's completion already
// blows the deadline, the request is rejected here — deadline propagation's
// serving-level analog of the scheduler's reject-on-arrival. Shedding at pick
// time is safe because lane frees only move later: no future placement of
// this request could complete earlier than the one just computed.
func (s *Server) shed(r *request, completion vclock.Time, acc *tenantAcc) error {
	tc := &s.cfg.Tenants[r.tenant]
	if !s.cfg.UseDeadlines || tc.SLO <= 0 {
		return nil
	}
	if completion <= r.arrival.Add(tc.SLO) {
		return nil
	}
	acc.deadlineRej++
	s.met.deadlineRej.inc()
	s.met.tenants[r.tenant].deadlineRej.inc()
	return ErrDeadlineExceeded
}

// front is one Run's admission state — the fair queue, the quotas and the
// per-tenant accounts — as the scheduler loop sees it: where the next request
// comes from and where its outcome goes.
type front struct {
	s       *Server
	w       *wfq
	buckets []tokenBucket
	acc     []tenantAcc
	err     error // the first request that could not be planned; ends the run
}

func (f *front) Pick(vclock.Time) (*request, bool) {
	if f.err != nil {
		return nil, false
	}
	r := f.w.pick()
	return r, r != nil
}

func (f *front) Admit(r *request, _ sched.Candidate, ch sched.Choice) bool {
	return f.s.shed(r, ch.Done, &f.acc[r.tenant]) == nil
}

func (f *front) Done(r *request, c sched.Candidate, ch sched.Choice, elapsed vclock.Duration, err error) {
	if err != nil {
		f.err = err
		return
	}
	f.s.recordDispatch(r, c.Strategy, ch.Start, ch.Start.Add(elapsed), &f.acc[r.tenant])
}

// Run executes one open-loop serving simulation and returns its SLO
// accounting. The scheduler loop is single-threaded on virtual time and Run
// progresses it: before each arrival it dispatches every fair-queue pick whose
// earliest feasible start lies before the arrival (the arrival wins ties),
// admits the arrival, and after the last one drains the queue. The plan cache
// persists across runs on the same server, so a second Run observes
// steady-state hit rates.
func (s *Server) Run() (*Result, error) {
	arr := s.genArrivals()
	f := &front{
		s:       s,
		w:       newWFQ(s.cfg.Tenants, s.cfg.QueueDepth),
		buckets: make([]tokenBucket, len(s.cfg.Tenants)),
		acc:     make([]tenantAcc, len(s.cfg.Tenants)),
	}
	for i, tc := range s.cfg.Tenants {
		f.buckets[i] = newTokenBucket(tc.QuotaQPS, tc.Burst)
	}
	hitsBefore, missesBefore, evictsBefore := s.cacheCounters()
	loop := sched.NewLoop[*request](sched.NewLedger(s.model, s.model.HostCores, 1), s.cfg.Policy, s.runner, f)
	for _, r := range arr {
		if loop.AdvanceTo(r.arrival); f.err != nil {
			return nil, f.err
		}
		// Open-loop clients do not retry: a quota or queue-full rejection
		// is terminal for the request and already accounted by class
		// inside admit. Anything else is a real failure.
		if err := s.admit(r, loop.Now(), f.w, &f.buckets[r.tenant], &f.acc[r.tenant]); err != nil &&
			!errors.Is(err, ErrQuotaExceeded) && !errors.Is(err, sched.ErrQueueFull) {
			return nil, err
		}
	}
	if loop.Drain(); f.err != nil {
		return nil, f.err
	}
	return s.result(f.acc, loop.Makespan(), hitsBefore, missesBefore, evictsBefore), nil
}

// recordDispatch books one dispatched request's accounting: queue wait,
// end-to-end latency, SLO miss, strategy counters. All single-threaded, so
// histogram sums accumulate in a deterministic order.
func (s *Server) recordDispatch(r *request, strat coop.Strategy, start, completion vclock.Time, acc *tenantAcc) {
	m, tm := &s.met, &s.met.tenants[r.tenant]
	wait := start.Sub(r.arrival)
	lat := completion.Sub(r.arrival)
	acc.completed++
	acc.latSum += lat
	m.completed.inc()
	tm.completed.inc()
	m.strategy(strat).Inc()
	m.wait.observe(float64(wait))
	m.latency.observe(float64(lat))
	tm.latency.observe(float64(lat))
	if slo := s.cfg.Tenants[r.tenant].SLO; slo > 0 && lat > slo {
		acc.missed++
		tm.sloMiss.inc()
	}
}

func (s *Server) cacheCounters() (hits, misses, evicts int64) {
	return s.cache.hits.Value(), s.cache.misses.Value(), s.cache.evictions.Value()
}

func (s *Server) result(acc []tenantAcc, makespan vclock.Duration, h0, m0, e0 int64) *Result {
	res := &Result{Policy: s.cfg.Policy, Makespan: makespan}
	h1, m1, e1 := s.cacheCounters()
	res.CacheHits, res.CacheMisses, res.CacheEvictions = h1-h0, m1-m0, e1-e0
	for i := range s.cfg.Tenants {
		tc := s.cfg.Tenants[i]
		a := acc[i]
		tr := TenantResult{
			Name: tc.Name, Weight: tc.Weight,
			Requests: a.requests, Completed: a.completed,
			QuotaRejected: a.quotaRej, QueueRejected: a.queueRej,
			DeadlineRejected: a.deadlineRej,
			SLOMissed:        a.missed,
		}
		hist := s.met.tenants[i].latency.get()
		tr.P50 = Quantile(hist, 0.50)
		tr.P95 = Quantile(hist, 0.95)
		tr.P99 = Quantile(hist, 0.99)
		if a.completed > 0 {
			tr.MeanLatency = a.latSum / vclock.Duration(a.completed)
			tr.MissRate = float64(a.missed) / float64(a.completed)
		}
		res.Tenants = append(res.Tenants, tr)
		res.Requests += a.requests
		res.Completed += a.completed
		res.QuotaRejected += a.quotaRej
		res.QueueRejected += a.queueRej
		res.DeadlineRejected += a.deadlineRej
	}
	if res.Makespan > 0 {
		res.ThroughputQPS = float64(res.Completed) / res.Makespan.Seconds()
	}
	return res
}
