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
// Placement model: HostLanes host execution lanes and DeviceSlots NDP command
// slots. Host-native runs occupy one host lane; full-NDP runs one device
// slot; hybrid splits occupy one of each for the run's duration (the host
// side of a cooperative run drives the device side). Per policy: force-host
// always takes the host lane; force-ndp takes a device slot whenever the plan
// fits device memory; adaptive compares earliest-completion across the host
// path and the decided device path (spilling host-decided queries to full NDP
// when feasible) and breaks ties toward the host.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

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
	// HostLanes bounds concurrent host-native executions (default: the
	// model's host core count).
	HostLanes int
	// DeviceSlots bounds concurrent device-resident executions (default 1,
	// the COSMOS+ single execution core).
	DeviceSlots int
	// QueueDepth bounds each tenant's admission queue across the three
	// priority classes (default 64).
	QueueDepth int
	// PlanCacheCap bounds the shared plan cache (default 256 entries).
	PlanCacheCap int
	// Quantum is the DRR base quantum in virtual time; a tenant earns
	// Quantum×Weight of service credit per scheduler round (default 1ms).
	Quantum vclock.Duration
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
	// FleetSpec tags plan-cache keys with the device topology (default
	// "single").
	FleetSpec string
	// UseDeadlines turns tenant SLOs into hard per-request deadlines
	// (deadline = arrival + SLO): a picked request whose earliest feasible
	// completion already blows its deadline is shed (ErrDeadlineExceeded,
	// counted per tenant) instead of burning a lane on work nobody can use.
	// Tenants with SLO 0 are never shed. Off by default — SLOs then stay
	// observational, as before.
	UseDeadlines bool
}

func (c Config) withDefaults(m hw.Model) Config {
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
	if c.HostLanes < 1 {
		c.HostLanes = m.HostCores
		if c.HostLanes < 1 {
			c.HostLanes = 1
		}
	}
	if c.DeviceSlots < 1 {
		c.DeviceSlots = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.PlanCacheCap < 1 {
		c.PlanCacheCap = 256
	}
	if c.Quantum <= 0 {
		c.Quantum = vclock.Millisecond
	}
	if c.Horizon <= 0 {
		c.Horizon = vclock.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FleetSpec == "" {
		c.FleetSpec = "single"
	}
	return c
}

// Server is one serving instance: sessions per tenant, the shared plan
// cache, and the open-loop executor over a measured cost table.
type Server struct {
	cfg     Config
	opt     *optimizer.Optimizer
	ct      *CostTable
	m       *obs.Registry
	cache   *PlanCache
	session []*Session
	queries []*query.Query
	epoch   int64
}

// New assembles a server over a loaded dataset and a measured cost table
// (Measure over the same workload). Every tenant gets a session with all
// workload queries prepared through the SQL front end — rendered to text,
// parsed back, validated — so serving exercises the full SQL-in path, not
// the hand-built query structs.
func New(ds *job.Dataset, ct *CostTable, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults(ds.Model)
	queries := cfg.Queries
	if len(queries) == 0 {
		queries = job.Queries()
	}
	if len(queries) == 0 {
		return nil, errors.New("serve: empty workload")
	}
	s := &Server{
		cfg:     cfg,
		opt:     optimizer.New(ds.Cat, ds.Model),
		ct:      ct,
		m:       cfg.Metrics,
		queries: queries,
	}
	if s.m == nil {
		s.m = obs.NewRegistry()
	}
	s.cache = NewPlanCache(cfg.PlanCacheCap, s.m)
	seen := map[string]bool{}
	for _, tc := range cfg.Tenants {
		if seen[tc.Name] {
			return nil, fmt.Errorf("serve: duplicate tenant name %q", tc.Name)
		}
		seen[tc.Name] = true
	}
	for _, q := range queries {
		if _, ok := ct.Cost(q.Name); !ok {
			return nil, fmt.Errorf("serve: cost table is missing workload query %s", q.Name)
		}
	}
	for _, tc := range cfg.Tenants {
		sess := NewSession(tc.Name, ds.Cat)
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

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// BumpStatsEpoch advances the statistics epoch, invalidating every cached
// plan on next lookup (new keys miss; old entries age out via LRU).
func (s *Server) BumpStatsEpoch() { s.epoch++ }

// StatsEpoch reports the current statistics epoch.
func (s *Server) StatsEpoch() int64 { return s.epoch }

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
	key := CacheKey{SQL: p.Norm, StatsEpoch: s.epoch, FleetSpec: s.cfg.FleetSpec}
	if d, ok := s.cache.Get(key, now); ok {
		return d, nil
	}
	d, err := s.opt.Decide(p.Query)
	if err != nil {
		return nil, fmt.Errorf("serve: compile %s: %w", p.Name, err)
	}
	s.cache.Put(key, d, now)
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
	SLO              vclock.Duration
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

// lanes is the run's resource state: per-lane earliest-free instants.
type lanes struct {
	host []vclock.Time
	dev  []vclock.Time
}

func earliest(frees []vclock.Time) (int, vclock.Time) {
	bi, bt := 0, frees[0]
	for i := 1; i < len(frees); i++ {
		if frees[i] < bt {
			bi, bt = i, frees[i]
		}
	}
	return bi, bt
}

// placement is one dispatch choice: strategy, service time, lane indexes
// (-1 = unused) and the earliest start instant.
type placement struct {
	strat     coop.Strategy
	svc       vclock.Duration
	host, dev int
	start     vclock.Time
}

func (p placement) completion() vclock.Time { return p.start.Add(p.svc) }

// place chooses the placement for r under the configured policy given the
// current lane state. Deterministic: lane picks take the lowest free index,
// completion ties break toward the host path.
func (s *Server) place(r *request, now vclock.Time, L *lanes) (placement, error) {
	prep, ok := s.session[r.tenant].Stmt(r.name)
	if !ok {
		return placement{}, fmt.Errorf("serve: no prepared statement %q", r.name)
	}
	dec, err := s.planFor(prep, now)
	if err != nil {
		return placement{}, err
	}
	qc, ok := s.ct.Cost(r.name)
	if !ok {
		return placement{}, fmt.Errorf("serve: no measured cost for %q", r.name)
	}
	decided := coop.DecisionStrategy(dec)

	hi, hf := earliest(L.host)
	hostP := placement{
		strat: coop.Strategy{Kind: coop.HostNative}, svc: qc.Host,
		host: hi, dev: -1, start: vclock.MaxTime(now, hf),
	}
	switch s.cfg.Policy {
	case sched.ForceHost:
		return hostP, nil
	case sched.ForceNDP:
		if !qc.NDPFeasible {
			return hostP, nil
		}
		di, df := earliest(L.dev)
		return placement{
			strat: coop.Strategy{Kind: coop.NDPOnly}, svc: qc.NDP,
			host: -1, dev: di, start: vclock.MaxTime(now, df),
		}, nil
	}
	devStrat, devNs, hasDev := qc.devicePathFor(decided)
	if !hasDev {
		return hostP, nil
	}
	di, df := earliest(L.dev)
	devP := placement{strat: devStrat, svc: devNs, host: -1, dev: di}
	if devStrat.Kind == coop.Hybrid {
		// A cooperative run holds a host lane too: the host side drives the
		// device and merges above the split.
		devP.host = hi
		devP.start = vclock.MaxTime(vclock.MaxTime(now, hf), df)
	} else {
		devP.start = vclock.MaxTime(now, df)
	}
	if devP.completion() < hostP.completion() {
		return devP, nil
	}
	return hostP, nil
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
// sequence number. Ordering ties break by (tenant, seq) — fully
// deterministic for a given (seed, spec, tenant set).
func (s *Server) genArrivals() []*request {
	var all []*request
	for ti := range s.cfg.Tenants {
		tc := s.cfg.Tenants[ti]
		rng := rand.New(rand.NewSource(tenantSeed(s.cfg.Seed, ti)))
		rate := tc.RateQPS
		if rate <= 0 {
			rate = s.cfg.Arrival.Rate
		}
		times := s.cfg.Arrival.times(rng, rate, s.cfg.Horizon)
		var zipf *rand.Zipf
		if tc.Skew > 1 && len(s.queries) > 1 {
			zipf = rand.NewZipf(rng, tc.Skew, 1, uint64(len(s.queries)-1))
		}
		for seq, at := range times {
			var qi int
			if zipf != nil {
				qi = int((zipf.Uint64() + uint64(ti)*37) % uint64(len(s.queries)))
			} else {
				qi = rng.Intn(len(s.queries))
			}
			q := s.queries[qi]
			qc, _ := s.ct.Cost(q.Name)
			all = append(all, &request{
				tenant: ti, seq: seq, name: q.Name,
				prio: sched.Priority(seq % 3), arrival: at, cost: qc.Host,
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].arrival != all[j].arrival {
			return all[i].arrival < all[j].arrival
		}
		if all[i].tenant != all[j].tenant {
			return all[i].tenant < all[j].tenant
		}
		return all[i].seq < all[j].seq
	})
	return all
}

// tenantAcc accumulates one tenant's per-run counts.
type tenantAcc struct {
	requests, completed, quotaRej, queueRej, deadlineRej, missed int
	latSum                                                       vclock.Duration
}

// admit classifies one arrival: nil (queued), ErrQuotaExceeded (token bucket
// dry) or sched.ErrQueueFull (tenant queue at depth). Counting happens here
// so the registry sees admission in arrival order.
func (s *Server) admit(r *request, now vclock.Time, w *wfq, b *tokenBucket, acc *tenantAcc) error {
	name := s.cfg.Tenants[r.tenant].Name
	s.m.Counter("serve.requests").Inc()
	s.m.Counter("serve.requests." + name).Inc()
	acc.requests++
	if !b.allow(now) {
		acc.quotaRej++
		s.m.Counter("serve.rejected.quota").Inc()
		s.m.Counter("serve.rejected.quota." + name).Inc()
		return fmt.Errorf("%w: tenant %s at %v", ErrQuotaExceeded, name, now)
	}
	if !w.push(r) {
		acc.queueRej++
		s.m.Counter("serve.rejected.queue_full").Inc()
		s.m.Counter("serve.rejected.queue_full." + name).Inc()
		return fmt.Errorf("%w: tenant %s queue at depth %d", sched.ErrQueueFull, name, s.cfg.QueueDepth)
	}
	s.m.Counter("serve.admitted").Inc()
	return nil
}

// shed classifies a picked request against its deadline (arrival + tenant
// SLO) under UseDeadlines: when the chosen placement's completion already
// blows the deadline, the request is rejected here — deadline propagation's
// serving-level analog of the scheduler's reject-on-arrival. Shedding at pick
// time is safe because lane frees only move later: no future placement of
// this request could complete earlier than the one just computed.
func (s *Server) shed(r *request, p placement, acc *tenantAcc) error {
	tc := s.cfg.Tenants[r.tenant]
	if !s.cfg.UseDeadlines || tc.SLO <= 0 {
		return nil
	}
	deadline := r.arrival.Add(tc.SLO)
	if p.completion() <= deadline {
		return nil
	}
	acc.deadlineRej++
	s.m.Counter("serve.rejected.deadline").Inc()
	s.m.Counter("serve.rejected.deadline." + tc.Name).Inc()
	return fmt.Errorf("%w: tenant %s completion %v past deadline %v",
		ErrDeadlineExceeded, tc.Name, p.completion(), deadline)
}

// Run executes one open-loop serving simulation and returns its SLO
// accounting. The loop is single-threaded on virtual time: it alternates
// between admitting the next arrival and dispatching the fair queue's next
// pick at its earliest feasible start, whichever comes first (arrival wins
// ties). The plan cache persists across runs on the same server, so a second
// Run observes steady-state hit rates.
func (s *Server) Run() (*Result, error) {
	arr := s.genArrivals()
	L := &lanes{host: make([]vclock.Time, s.cfg.HostLanes), dev: make([]vclock.Time, s.cfg.DeviceSlots)}
	w := newWFQ(s.cfg.Tenants, s.cfg.Quantum, s.cfg.QueueDepth)
	buckets := make([]tokenBucket, len(s.cfg.Tenants))
	for i := range s.cfg.Tenants {
		buckets[i] = newTokenBucket(s.cfg.Tenants[i].QuotaQPS, s.cfg.Tenants[i].Burst)
	}
	acc := make([]tenantAcc, len(s.cfg.Tenants))
	hitsBefore, missesBefore, evictsBefore := s.cacheCounters()

	var now, makespan vclock.Time
	ai := 0
	var pending *request
	var pendingP placement
	inf := vclock.Time(math.Inf(1))
	for ai < len(arr) || w.Len() > 0 || pending != nil {
		if pending == nil && w.Len() > 0 {
			pending = w.pick()
			p, err := s.place(pending, now, L)
			if err != nil {
				return nil, err
			}
			if err := s.shed(pending, p, &acc[pending.tenant]); err != nil {
				if !errors.Is(err, ErrDeadlineExceeded) {
					return nil, err
				}
				pending = nil
				continue
			}
			pendingP = p
		}
		tArr, tDis := inf, inf
		if ai < len(arr) {
			tArr = arr[ai].arrival
		}
		if pending != nil {
			tDis = pendingP.start
		}
		if tArr <= tDis {
			now = vclock.MaxTime(now, tArr)
			r := arr[ai]
			ai++
			// Open-loop clients do not retry: a quota or queue-full rejection
			// is terminal for the request and already accounted by class
			// inside admit. Anything else is a real failure.
			if err := s.admit(r, now, w, &buckets[r.tenant], &acc[r.tenant]); err != nil &&
				!errors.Is(err, ErrQuotaExceeded) && !errors.Is(err, sched.ErrQueueFull) {
				return nil, err
			}
			continue
		}
		now = vclock.MaxTime(now, tDis)
		comp := pendingP.completion()
		if pendingP.host >= 0 {
			L.host[pendingP.host] = comp
		}
		if pendingP.dev >= 0 {
			L.dev[pendingP.dev] = comp
		}
		s.recordDispatch(pending, pendingP, &acc[pending.tenant])
		if comp > makespan {
			makespan = comp
		}
		pending = nil
	}
	return s.result(acc, makespan, hitsBefore, missesBefore, evictsBefore), nil
}

// recordDispatch books one dispatched request's accounting: queue wait,
// end-to-end latency, SLO miss, strategy counters. All single-threaded, so
// histogram sums accumulate in a deterministic order.
func (s *Server) recordDispatch(r *request, p placement, acc *tenantAcc) {
	tc := s.cfg.Tenants[r.tenant]
	wait := p.start.Sub(r.arrival)
	lat := p.completion().Sub(r.arrival)
	acc.completed++
	acc.latSum += lat
	s.m.Counter("serve.completed").Inc()
	s.m.Counter("serve.completed." + tc.Name).Inc()
	s.m.Counter("serve.strategy." + p.strat.String()).Inc()
	s.m.Histogram("serve.queue.wait.ns", LatencyBuckets).Observe(float64(wait))
	s.m.Histogram("serve.latency.ns", LatencyBuckets).Observe(float64(lat))
	s.m.Histogram("serve.latency.ns."+tc.Name, LatencyBuckets).Observe(float64(lat))
	if tc.SLO > 0 && lat > tc.SLO {
		acc.missed++
		s.m.Counter("serve.slo.miss." + tc.Name).Inc()
	}
}

func (s *Server) cacheCounters() (hits, misses, evicts int64) {
	return s.cache.hits.Value(), s.cache.misses.Value(), s.cache.evictions.Value()
}

func (s *Server) result(acc []tenantAcc, makespan vclock.Time, h0, m0, e0 int64) *Result {
	res := &Result{Policy: s.cfg.Policy, Makespan: vclock.Duration(makespan)}
	h1, m1, e1 := s.cacheCounters()
	res.CacheHits, res.CacheMisses, res.CacheEvictions = h1-h0, m1-m0, e1-e0
	for i := range s.cfg.Tenants {
		tc := s.cfg.Tenants[i]
		a := acc[i]
		tr := TenantResult{
			Name: tc.Name, Weight: tc.Weight, SLO: tc.SLO,
			Requests: a.requests, Completed: a.completed,
			QuotaRejected: a.quotaRej, QueueRejected: a.queueRej,
			DeadlineRejected: a.deadlineRej,
			SLOMissed:        a.missed,
		}
		hist := s.m.Histogram("serve.latency.ns."+tc.Name, LatencyBuckets)
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
