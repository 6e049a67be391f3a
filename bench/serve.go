package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/sched"
	"hybridndp/internal/serve"
	"hybridndp/internal/vclock"
)

// The open-loop ladder: fixed total arrival rates in virtual queries per
// second, split evenly over the tenants. Where the adaptive policy saturates
// depends on the generated data — a heavy query among a tenant's popular ones
// costs capacity — and lies between the 450 and the 900 rung at scale 0.01,
// so the ladder has rungs well below, near and above saturation. The SLO
// metrics are read at reportRate, where queueing decides them; the end-to-end
// latency is read at lightRate, where a request hardly waits and the number
// is steady from seed to seed.
var ladder = []float64{150, 300, 450, 600, 900}

const (
	lightRate    = 150.0
	reportRate   = 450.0
	tenants      = 3
	tenantSLO    = 50 * vclock.Millisecond
	sloMissPct   = 5.0               // a rung meets the SLO with at most this share late or refused …
	maxOverrun   = 1 * vclock.Second // … and a backlog that drains within this long after the horizon
	smallCache   = 32                // plan-cache entries of the small-cache run: fewer than the 113 statements
	defaultCache = 0
)

// serveEnv is a loaded dataset with its measured cost table: ready to serve.
type serveEnv struct {
	load     *loaded
	seed     int64 // of the dataset and of the arrival streams
	ct       *serve.CostTable
	measureS float64
	newS     float64
	setupS   float64
}

func serveConfig(cfg config, seed int64, rate float64, policy sched.Policy, cacheCap int) serve.Config {
	return serve.Config{
		Tenants:      serve.DefaultTenants(tenants, tenantSLO),
		Arrival:      serve.ArrivalSpec{Kind: "poisson", Rate: rate / tenants},
		Policy:       policy,
		PlanCacheCap: cacheCap,
		Horizon:      cfg.horizon,
		Seed:         seed,
	}
}

// setupServe is process start → ready to serve: load, serve.Measure (every
// distinct query and strategy executed once for real) and serve.New (every
// statement prepared through the SQL front end for every tenant).
func setupServe(cfg config, seed int64, rec *recorder) (*serveEnv, error) {
	t0 := time.Now()
	l, err := loadDataset(cfg.serveScale, seed, rec)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{load: l, seed: seed}
	sp := rec.begin("serve.measure")
	tm := time.Now()
	e.ct, err = serve.Measure(l.ds, job.Queries(), min(2, runtime.NumCPU()))
	e.measureS = time.Since(tm).Seconds()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("serve.new")
	tn := time.Now()
	_, err = serve.New(l.ds, e.ct, serveConfig(cfg, seed, reportRate, sched.Adaptive, defaultCache))
	e.newS = time.Since(tn).Seconds()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// rungOut is one simulated serving run.
type rungOut struct {
	res     *serve.Result
	reg     *obs.Registry
	wallS   float64 // serve.Server.Run only
	allocKB float64 // allocated inside Run, per request
}

// rung serves one arrival rate on a fresh server (plan cache cold, metrics
// registry its own) and times Run.
func (e *serveEnv) rung(cfg config, rate float64, policy sched.Policy, cacheCap int, rec *recorder) (rungOut, error) {
	sp := rec.begin("serve.new")
	srv, err := serve.New(e.load.ds, e.ct, serveConfig(cfg, e.seed, rate, policy, cacheCap))
	rec.end(sp)
	if err != nil {
		return rungOut{}, err
	}
	a0 := totalAlloc()
	sp = rec.begin("serve.run")
	t0 := time.Now()
	res, err := srv.Run()
	wall := time.Since(t0).Seconds()
	rec.end(sp)
	if err != nil {
		return rungOut{}, err
	}
	alloc := float64(totalAlloc()-a0) / 1024 / float64(res.Requests)
	return rungOut{res: res, reg: srv.Registry(), wallS: wall, allocKB: alloc}, nil
}

func refused(res *serve.Result) int {
	return res.QuotaRejected + res.QueueRejected + res.DeadlineRejected
}

// missPct is (late + refused) / offered: a refused request misses any limit.
func missPct(res *serve.Result) float64 {
	late := 0
	for _, t := range res.Tenants {
		late += t.SLOMissed
	}
	return pct(float64(late+refused(res)), float64(res.Requests))
}

// meanLatencyMs is the mean virtual latency of the completed requests, each
// counted from the instant it was due.
func meanLatencyMs(res *serve.Result) float64 {
	var total float64
	for _, t := range res.Tenants {
		total += t.MeanLatency.Milliseconds() * float64(t.Completed)
	}
	return total / float64(res.Completed)
}

// latencyP50Ms is the median virtual latency over all tenants' completed
// requests. The server only keeps a histogram, whose own quantile is a
// bucket's upper bound and so moves in steps of a third; interpolating inside
// the bucket gives a number that moves with the counts.
func latencyP50Ms(reg *obs.Registry) float64 {
	bounds, counts := reg.Histogram("serve.latency.ns", serve.LatencyBuckets).Buckets()
	var total int64
	for _, c := range counts {
		total += c
	}
	target := float64(total) / 2
	var below float64
	for i, c := range counts[:len(bounds)] {
		if c > 0 && below+float64(c) >= target {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return vclock.Duration(lo + (bounds[i]-lo)*(target-below)/float64(c)).Milliseconds()
		}
		below += float64(c)
	}
	return vclock.Duration(bounds[len(bounds)-1]).Milliseconds() // the median is in the overflow bucket
}

// worstP99Ms is the worst tenant's p99, capped at the histogram's last bound
// (serve.Quantile reports +Inf for samples beyond it).
func worstP99Ms(res *serve.Result) float64 {
	var worst vclock.Duration
	for _, t := range res.Tenants {
		worst = max(worst, t.P99)
	}
	top := vclock.Duration(serve.LatencyBuckets[len(serve.LatencyBuckets)-1])
	return min(worst, top).Milliseconds()
}

// serveSystem is one set-up system with the ladder plays measured on it.
type serveSystem struct {
	env    *serveEnv
	best   []rungOut                // per rung, the play with the best wall time
	first  map[string]*serve.Result // per configuration, the first run's outcome
	passes int
}

func newServeSystem(cfg config, seed int64, rec *recorder) (*serveSystem, error) {
	env, err := setupServe(cfg, seed, rec)
	if err != nil {
		return nil, err
	}
	return &serveSystem{env: env, best: make([]rungOut, len(ladder)), first: map[string]*serve.Result{}}, nil
}

// at returns the best play of the rung with the given rate.
func (s *serveSystem) at(rate float64) rungOut {
	for i, r := range ladder {
		if r == rate {
			return s.best[i]
		}
	}
	panic("bench: the rate is not on the ladder")
}

// checkedRung serves one rate and checks the books: every offered request was
// completed or refused, and a repeated run reproduces the virtual outcome of
// the first one exactly.
func (s *serveSystem) checkedRung(cfg config, label string, rate float64, policy sched.Policy, cacheCap int, r *result, rec *recorder) (rungOut, error) {
	rec.setOp(fmt.Sprintf("%s/%gqps", label, rate))
	o, err := s.env.rung(cfg, rate, policy, cacheCap, rec)
	if err != nil {
		return o, err
	}
	res := o.res
	r.Attempted += res.Requests
	if lost := res.Requests - res.Completed - refused(res); lost != 0 {
		r.fail("%g qps: %d of %d requests neither completed nor refused", rate, lost, res.Requests)
		r.Failed += lost - 1
	}
	key := fmt.Sprintf("%g/%v/%d", rate, policy, cacheCap)
	if f, ok := s.first[key]; !ok {
		s.first[key] = res
	} else if f.Requests != res.Requests || f.Completed != res.Completed || f.Makespan != res.Makespan ||
		meanLatencyMs(f) != meanLatencyMs(res) {
		r.fail("%g qps: virtual outcome differs from the first play (%d/%d done, makespan %v vs %d/%d, %v)",
			rate, res.Completed, res.Requests, res.Makespan, f.Completed, f.Requests, f.Makespan)
	}
	return o, nil
}

// play serves every rung of the ladder once, untraced, and keeps each rung's
// play with the best wall time.
func (s *serveSystem) play(cfg config, r *result) error {
	for i, rate := range ladder {
		o, err := s.checkedRung(cfg, fmt.Sprintf("play%d", s.passes), rate, sched.Adaptive, defaultCache, r, nil)
		if err != nil {
			return err
		}
		if s.passes == 0 || o.wallS < s.best[i].wallS {
			s.best[i] = o
		}
	}
	s.passes++
	return nil
}

func runServe(cfg config, traced bool) (*result, error) {
	r := &result{Scale: cfg.serveScale, Metrics: values{}}
	r.note("open loop, Poisson arrivals; latency is counted from each request's virtual due time; the generator runs on the virtual clock, so it is never late")
	if !traced {
		// Several systems whose ladder plays take turns, for the reason given
		// in runJob.
		systems := make([]*serveSystem, cfg.systems)
		for k := range systems {
			var err error
			if systems[k], err = newServeSystem(cfg, cfg.systemSeed(k), nil); err != nil {
				return nil, err
			}
		}
		var err error
		r.Passes, err = timedLoop(cfg.budget(false), cfg.minPasses*len(systems), func(p int) error {
			return systems[p%len(systems)].play(cfg, r)
		})
		if err != nil {
			return nil, err
		}
		var samples []sample
		for _, s := range systems {
			sm := sample{setupS: []float64{s.env.setupS}, stored: s.env.load.storedPerUserByte(),
				virtualMs: []float64{latencyP50Ms(s.at(lightRate).reg)}}
			for _, o := range s.best {
				sm.wallMs = append(sm.wallMs, 1e3*o.wallS/float64(o.res.Requests))
				sm.allocKB = append(sm.allocKB, o.allocKB)
			}
			samples = append(samples, sm)
		}
		endToEndMetrics(r.Metrics, samples)
		return r, nil
	}

	// Traced run: one system, untraced plays as the baseline, then one traced
	// play of the ladder and the comparison runs at the report rung.
	rec := newRecorder()
	r.trace = rec
	rec.setOp("setup")
	s, err := newServeSystem(cfg, cfg.systemSeed(0), rec)
	if err != nil {
		return nil, err
	}
	r.Passes, err = timedLoop(cfg.budget(true), cfg.minPasses, func(int) error { return s.play(cfg, r) })
	if err != nil {
		return nil, err
	}
	e := s.env
	var requests int
	var wallS float64
	for _, o := range s.best {
		requests += o.res.Requests
		wallS += o.wallS
	}
	var tracedWall float64
	var tracedAt rungOut
	for _, rate := range ladder {
		o, err := s.checkedRung(cfg, "traced", rate, sched.Adaptive, defaultCache, r, rec)
		if err != nil {
			return nil, err
		}
		tracedWall += o.wallS
		if rate == reportRate {
			tracedAt = o
		}
	}
	hostOnly, err := s.checkedRung(cfg, "host-policy", reportRate, sched.ForceHost, defaultCache, r, rec)
	if err != nil {
		return nil, err
	}
	// With a cache smaller than the working set a third of the requests
	// compile their plan, at the price of a hundred cache hits each; a
	// thirtieth of the horizon is enough to measure that.
	short := cfg
	short.horizon /= 30
	small, err := s.checkedRung(short, "small-cache", reportRate, sched.Adaptive, smallCache, r, rec)
	if err != nil {
		return nil, err
	}

	m := r.Metrics
	e.load.layerMetrics(m)
	rec.setOp("probe")
	if err := probeStorage(e.load.ds, cfg.seed, cfg.gets, rec, m); err != nil {
		return nil, err
	}
	var deviceDecisions int
	for _, q := range job.Queries() {
		if qc, ok := e.ct.Cost(q.Name); ok && (qc.Decision.Hybrid || qc.Decision.NDP) {
			deviceDecisions++
		}
	}
	at := s.at(reportRate).res
	stmts := float64(tenants * len(job.Queries()))
	m.set("optimizer.device_decisions_pct", pct(float64(deviceDecisions), float64(len(job.Queries()))))
	m.set("serve.measure_s", e.measureS)
	m.set("serve.prepare_us_per_stmt", 1e6*e.newS/stmts)
	m.set("serve.us_per_request", 1e6*wallS/float64(requests))
	m.set("serve.slo_miss_pct", missPct(at))
	m.set("serve.virtual_p99_ms", worstP99Ms(at))
	var maxRate float64
	for i, o := range s.best {
		if missPct(o.res) <= sloMissPct && o.res.Makespan-cfg.horizon <= maxOverrun {
			maxRate = math.Max(maxRate, ladder[i])
		}
	}
	m.set("serve.max_rate_meeting_slo_qps", maxRate)
	m.set("serve.plan_cache_hit_pct", pct(float64(at.CacheHits), float64(at.CacheHits+at.CacheMisses)))
	reg := tracedAt.reg
	m.set("serve.queue_wait_ms_p50", serve.Quantile(reg.Histogram("serve.queue.wait.ns", serve.LatencyBuckets), 0.5).Milliseconds())
	m.set("serve.rejected_pct", pct(float64(refused(at)), float64(at.Requests)))
	native := float64(reg.Counter("serve.strategy.native").Value())
	m.set("serve.device_placed_pct", pct(float64(at.Completed)-native, float64(at.Completed)))
	m.set("serve.makespan_overrun_s", max(0, at.Makespan-cfg.horizon).Seconds())
	m.set("serve.host_policy_miss_pct", missPct(hostOnly.res))
	sr := small.res
	m.set("serve.smallcache_hit_pct", pct(float64(sr.CacheHits), float64(sr.CacheHits+sr.CacheMisses)))
	m.set("serve.smallcache_us_per_request", 1e6*small.wallS/float64(sr.Requests))
	m.set("serve.generator_late_ms", 0)
	m.set("obs.trace_overhead_pct", 100*(tracedWall/wallS-1))
	m.set("bench.pass_wall_s", wallS)
	m.set("bench.pass_virtual_s", float64(len(ladder))*cfg.horizon.Seconds())

	// The bypass must be real: the timed part replays measured costs, so no
	// executor may run inside it.
	if n := rec.countPrefix("coop.", "exec.", "fleet."); n != 0 {
		r.fail("serve-openloop bypasses execution, but %d coop/exec/fleet spans were recorded", n)
	}
	return r, nil
}
