package main

import (
	"fmt"
	"runtime"
	"time"

	"hybridndp"
	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/sql"
	"hybridndp/internal/vclock"
)

// jobMode selects which execution path the 113 JOB queries take.
type jobMode int

const (
	// modeHost: SQL text → sql.Parse → Validate → Optimizer.BuildPlan →
	// coop.Executor.Run(HostNative). exec operators, expr kernels and the
	// lsm/flash read path do all the work; device, transfer and split
	// planning do none.
	modeHost jobMode = iota
	// modeHybrid: … → Optimizer.Decide → decision→strategy → Executor.Run,
	// the paper's hybridNDP mode. Reference: the same plan host-native.
	modeHybrid
	// modeFleet: … → Decide → fleet.PlanShards → fleet.Executor.Run over four
	// devices. Reference: a one-device fleet.
	modeFleet
)

const fleetDevices = 4

// jobEnv is a set-up system ready to answer SQL text.
type jobEnv struct {
	mode   jobMode
	load   *loaded
	opt    *optimizer.Optimizer
	cx     *coop.Executor
	fx     *fleet.Executor // modeFleet
	fx1    *fleet.Executor // modeFleet: the one-device reference
	descMs float64         // wall ms of fleet.Build for the measured fleet
	setupS float64
}

// setupJob loads the dataset and assembles what the mode needs to serve.
func setupJob(mode jobMode, scale float64, seed int64, rec *recorder) (*jobEnv, error) {
	t0 := time.Now()
	l, err := loadDataset(scale, seed, rec)
	if err != nil {
		return nil, err
	}
	ds := l.ds
	e := &jobEnv{mode: mode, load: l,
		opt: optimizer.New(ds.Cat, ds.Model),
		cx:  coop.NewExecutor(ds.Cat, ds.DB, ds.Model),
	}
	if mode == modeFleet {
		sp := rec.begin("fleet.build")
		tb := time.Now()
		desc, err := fleet.Build(ds.Cat, fleetDevices, "range")
		e.descMs = float64(time.Since(tb)) / float64(time.Millisecond)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		e.fx = fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	}
	e.setupS = time.Since(t0).Seconds()
	if mode == modeFleet {
		// The reference fleet is the benchmark's, not the system's: it is
		// built after the set-up clock stops.
		desc1, err := fleet.Build(ds.Cat, 1, "range")
		if err != nil {
			return nil, err
		}
		e.fx1 = fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc1)
	}
	return e, nil
}

// queryOut is what one query returned, with the report of whichever executor
// ran it.
type queryOut struct {
	res     *exec.Result
	elapsed vclock.Duration
	dec     *optimizer.Decision // nil in modeHost
	coop    *coop.Report
	fleet   *fleet.Report
}

// query answers one SQL text through the mode's path. rec and tr are nil on
// untraced passes.
func (e *jobEnv) query(text string, rec *recorder, tr *obs.Trace) (queryOut, error) {
	var out queryOut
	sp := rec.begin("sql.parse")
	q, err := sql.Parse(text)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	sp = rec.begin("sql.validate")
	err = q.Validate(e.load.ds.Cat)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	if e.mode == modeHost {
		sp = rec.begin("optimizer.buildplan")
		p, err := e.opt.BuildPlan(q)
		rec.end(sp)
		if err != nil {
			return out, err
		}
		return e.runCoop(p, coop.Strategy{Kind: coop.HostNative}, rec, tr, out)
	}
	sp = rec.begin("optimizer.decide")
	out.dec, err = e.opt.Decide(q)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	if e.mode == modeHybrid {
		return e.runCoop(out.dec.Plan, hybridndp.DecisionStrategy(out.dec), rec, tr, out)
	}
	sp = rec.begin("fleet.plan_shards")
	a, err := fleet.PlanShards(e.opt, e.fx.Desc, out.dec)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	sp = rec.begin("fleet.run")
	out.fleet, err = e.fx.RunTraced(a, tr, 0)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	out.res, out.elapsed = out.fleet.Result, out.fleet.Elapsed
	return out, nil
}

func (e *jobEnv) runCoop(p *exec.Plan, s coop.Strategy, rec *recorder, tr *obs.Trace, out queryOut) (queryOut, error) {
	sp := rec.begin("coop.run")
	rep, err := e.cx.RunTraced(p, s, tr)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	out.coop, out.res, out.elapsed = rep, rep.Result, rep.Elapsed
	return out, nil
}

// reference runs the mode's reference execution of an already decided query:
// host-native for modeHybrid, the one-device fleet for modeFleet.
func (e *jobEnv) reference(d *optimizer.Decision) (*exec.Result, vclock.Duration, error) {
	if e.mode == modeHybrid {
		rep, err := e.cx.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			return nil, 0, err
		}
		return rep.Result, rep.Elapsed, nil
	}
	a, err := fleet.PlanShards(e.opt, e.fx1.Desc, d)
	if err != nil {
		return nil, 0, err
	}
	rep, err := e.fx1.Run(a)
	if err != nil {
		return nil, 0, err
	}
	return rep.Result, rep.Elapsed, nil
}

// expect is the reference one query's every later answer is checked against.
type expect struct {
	rows        int64
	fingerprint string
	elapsed     vclock.Duration // this mode's virtual time, from the warm-up pass
	refElapsed  vclock.Duration // the reference execution's virtual time
}

// check compares an answer with the reference: row count, fingerprint, and
// virtual time, which must repeat exactly.
func (x expect) check(name string, out queryOut) error {
	if out.res.RowCount != x.rows {
		return fmt.Errorf("%s: %d rows, reference has %d", name, out.res.RowCount, x.rows)
	}
	if fp := fleet.Fingerprint(out.res); fp != x.fingerprint {
		return fmt.Errorf("%s: fingerprint %s, reference has %s", name, fp, x.fingerprint)
	}
	if x.elapsed != 0 && out.elapsed != x.elapsed {
		return fmt.Errorf("%s: virtual time %v, warm-up pass had %v", name, out.elapsed, x.elapsed)
	}
	return nil
}

// renderQueries produces the benchmark's input: the 113 JOB queries as SQL
// text, in catalogue order. The system under test only ever sees the text.
func renderQueries(rec *recorder) (names, texts []string, err error) {
	for _, q := range job.Queries() {
		sp := rec.begin("sql.render")
		text, err := sql.Render(q)
		rec.end(sp)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, q.Name)
		texts = append(texts, text)
	}
	return names, texts, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// jobSystem is one set-up system with its measurements: per query the best
// wall time over the timed passes, the warm-up pass's wall time, and the
// references every answer was checked against.
type jobSystem struct {
	env    *jobEnv
	setups []float64 // wall seconds of every set-up
	names  []string
	texts  []string
	want   []expect
	cold   []float64 // wall seconds per query in the warm-up pass
	alloc  []float64 // kB allocated per query in the warm-up pass
	best   []float64 // wall seconds per query, minimum over the timed passes
	skip   []bool    // queries the light passes leave out; nil while passes are full
	passes int
}

// heavyShare is the share of a pass's wall time above which a query is timed
// in the first minPasses passes only. One query (31c) is 30–75 % of a pass;
// it lies far beyond any percentile reported, so timing it again and again
// would only halve the number of timings everyone else gets.
const heavyShare = 0.10

// tracedPass is what the one traced pass of a run collects per query.
type tracedPass struct {
	rec    *recorder    // bench-side wall spans
	traces []*obs.Trace // the program's own virtual-time spans
	outs   []queryOut   // the executors' reports
}

// pass answers every query once, in order, and returns each one's wall
// seconds (0 for a query in skip). Answers are checked against the
// references outside the timed region. skip is nil on full passes, tp on
// untraced ones.
func (s *jobSystem) pass(label string, r *result, skip []bool, tp *tracedPass) []float64 {
	walls := make([]float64, len(s.texts))
	for i, text := range s.texts {
		if skip != nil && skip[i] {
			continue
		}
		var rec *recorder
		var tr *obs.Trace
		if tp != nil {
			rec, tr = tp.rec, obs.NewTrace(s.names[i])
			tp.traces[i] = tr
		}
		rec.setOp(label + "/" + s.names[i])
		sp := rec.begin("bench.query")
		t0 := time.Now()
		out, err := s.env.query(text, rec, tr)
		walls[i] = time.Since(t0).Seconds()
		rec.end(sp)
		r.Attempted++
		if err != nil {
			r.fail("%s: %v", s.names[i], err)
			continue
		}
		if err := s.want[i].check(s.names[i], out); err != nil {
			r.fail("%v", err)
		}
		if tp != nil {
			tp.outs[i] = out
		}
	}
	return walls
}

// newJobSystem sets one system up from its seed and runs the warm-up pass,
// which fills caches and lazy state, takes the references and, being untimed,
// is where the allocator's counters are read (reading them stops the world).
func newJobSystem(mode jobMode, cfg config, seed int64, r *result, rec *recorder) (*jobSystem, error) {
	// A JOB set-up takes a tenth of a second, too short to time once: it is
	// repeated, and the last system is kept.
	s := &jobSystem{}
	for i := 0; i < cfg.jobSetups; i++ {
		env, err := setupJob(mode, cfg.jobScale, seed, rec)
		if err != nil {
			return nil, err
		}
		s.env = env
		s.setups = append(s.setups, env.setupS)
	}
	env := s.env
	var err error
	if s.names, s.texts, err = renderQueries(rec); err != nil {
		return nil, err
	}
	n := len(s.texts)
	s.want = make([]expect, n)
	s.cold = make([]float64, n)
	s.alloc = make([]float64, n)
	s.best = make([]float64, n)
	for i, text := range s.texts {
		a0 := totalAlloc()
		t0 := time.Now()
		out, err := env.query(text, nil, nil)
		s.cold[i] = time.Since(t0).Seconds()
		s.alloc[i] = float64(totalAlloc()-a0) / 1024
		r.Attempted++
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.names[i], err)
		}
		ref, refElapsed := out.res, out.elapsed
		if mode != modeHost {
			if ref, refElapsed, err = env.reference(out.dec); err != nil {
				return nil, fmt.Errorf("reference %s: %w", s.names[i], err)
			}
		}
		s.want[i] = expect{rows: ref.RowCount, fingerprint: fleet.Fingerprint(ref), refElapsed: refElapsed}
		if err := s.want[i].check(s.names[i], out); err != nil {
			r.fail("%v", err)
		}
		s.want[i].elapsed = out.elapsed
	}
	return s, nil
}

// timedPass runs one timed, untraced pass and keeps each query's best wall
// time: the sandbox's noise (page faults, co-tenant steal) only adds, so a
// query's wall time is its minimum over the passes. The first minPasses
// passes are full; later ones leave out the heavy queries.
func (s *jobSystem) timedPass(cfg config, r *result) {
	if s.passes == cfg.minPasses {
		s.skip = make([]bool, len(s.best))
		limit := heavyShare * sum(s.best)
		for i, w := range s.best {
			s.skip[i] = w > limit
		}
	}
	for i, w := range s.pass(fmt.Sprintf("pass%d", s.passes), r, s.skip, nil) {
		if s.passes == 0 || (w > 0 && w < s.best[i]) {
			s.best[i] = w
		}
	}
	s.passes++
}

// sample turns the system's measurements into per-op samples.
func (s *jobSystem) sample() sample {
	out := sample{setupS: s.setups, stored: s.env.load.storedPerUserByte(), allocKB: s.alloc}
	for i := range s.texts {
		out.wallMs = append(out.wallMs, 1e3*s.best[i])
		out.virtualMs = append(out.virtualMs, s.want[i].elapsed.Milliseconds())
	}
	return out
}

func runJob(mode jobMode, cfg config, traced bool) (*result, error) {
	r := &result{Scale: cfg.jobScale, Metrics: values{}}
	if !traced {
		// Several systems, each generated from its own seed. Their timed
		// passes take turns, so that every query's best time is picked from
		// the whole length of the run and not from one system's few seconds:
		// the sandbox slows down by 15 % for 5–30 s at a time.
		systems := make([]*jobSystem, cfg.systems)
		for k := range systems {
			var err error
			if systems[k], err = newJobSystem(mode, cfg, cfg.systemSeed(k), r, nil); err != nil {
				return nil, err
			}
		}
		var err error
		r.Passes, err = timedLoop(cfg.budget(false), cfg.minPasses*len(systems), func(p int) error {
			systems[p%len(systems)].timedPass(cfg, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var samples []sample
		for _, s := range systems {
			samples = append(samples, s.sample())
		}
		endToEndMetrics(r.Metrics, samples)
		return r, nil
	}

	// Traced run: one system, untraced passes as the baseline, then one pass
	// with bench-side wall spans around every layer call and the program's
	// own virtual-time spans and counters switched on through public fields.
	rec := newRecorder()
	r.trace = rec
	rec.setOp("setup")
	s, err := newJobSystem(mode, cfg, cfg.systemSeed(0), r, rec)
	if err != nil {
		return nil, err
	}
	r.Passes, err = timedLoop(cfg.budget(true), cfg.minPasses, func(int) error {
		s.timedPass(cfg, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	e, n := s.env, len(s.texts)
	reg := obs.NewRegistry()
	e.cx.Metrics = reg
	if e.fx != nil {
		e.fx.Metrics = reg
	}
	flashBefore := e.load.ds.Flash.Stats()
	tp := &tracedPass{rec: rec, traces: make([]*obs.Trace, n), outs: make([]queryOut, n)}
	tracedWalls := s.pass("traced", r, nil, tp)
	flashAfter := e.load.ds.Flash.Stats()
	e.cx.Metrics = nil
	if e.fx != nil {
		e.fx.Metrics = nil
	}

	m := r.Metrics
	e.load.layerMetrics(m)
	rec.setOp("probe")
	if err := probeStorage(e.load.ds, cfg.seed, cfg.gets, rec, m); err != nil {
		return nil, err
	}
	spanP50(m, rec, "sql.render_us_p50", "sql.render", time.Microsecond)
	spanP50(m, rec, "sql.parse_us_p50", "sql.parse", time.Microsecond)
	spanP50(m, rec, "sql.validate_us_p50", "sql.validate", time.Microsecond)
	spanP50(m, rec, "optimizer.buildplan_us_p50", "optimizer.buildplan", time.Microsecond)
	spanP50(m, rec, "optimizer.decide_us_p50", "optimizer.decide", time.Microsecond)
	spanP50(m, rec, "coop.run_wall_ms_p50", "coop.run", time.Millisecond)
	spanP50(m, rec, "fleet.plan_shards_us_p50", "fleet.plan_shards", time.Microsecond)
	spanP50(m, rec, "fleet.run_wall_ms_p50", "fleet.run", time.Millisecond)
	m.set("fleet.build_descriptor_ms", e.descMs)
	m.set("bench.loop_self_pct", rec.selfShare("bench.query"))

	pages := float64(flashAfter.PageReads - flashBefore.PageReads)
	m.set("flash.page_reads_per_query", pages/float64(n))
	m.set("flash.random_read_pct", pct(float64(flashAfter.RandomReads-flashBefore.RandomReads), pages))
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	hits, misses := counter("coop.host.cache.hits"), counter("coop.host.cache.misses")
	m.set("lsm.host_cache_hit_pct", pct(hits, hits+misses))
	neg, pos := counter("coop.host.bloom.negative"), counter("coop.host.bloom.positive")
	m.set("lsm.bloom_negative_pct", pct(neg, neg+pos))
	m.set("device.scan_rows_total", counter("device.scan.rows"))
	m.set("device.scan_mb_total", counter("device.scan.bytes")/1e6)
	dh, dm := counter("device.cache.hits"), counter("device.cache.misses")
	m.set("device.cache_hit_pct", pct(dh, dh+dm))
	m.set("device.slot_stalls_total", counter("device.slot.stalls"))
	m.set("fleet.hedges_fired_total", counter("fleet.hedge.fired"))

	layerShares(mode, tp.outs, s.want, m)

	var spans int
	for _, tr := range tp.traces {
		spans += tr.Len()
	}
	m.set("obs.spans_per_query", float64(spans)/float64(n))
	m.set("obs.trace_overhead_pct", 100*(sum(tracedWalls)/sum(s.best)-1))
	m.set("exec.cold_pass_ratio", sum(s.cold)/sum(s.best))
	m.set("bench.pass_wall_s", sum(s.best))
	var virtualS float64
	for _, x := range s.want {
		virtualS += x.elapsed.Seconds()
	}
	m.set("bench.pass_virtual_s", virtualS)

	heaviest := 0
	for i, w := range s.best {
		if w > s.best[heaviest] {
			heaviest = i
		}
	}
	a0 := totalAlloc()
	if _, err := e.query(s.texts[heaviest], nil, nil); err != nil {
		return nil, err
	}
	m.set("exec.heaviest_query_alloc_mb", float64(totalAlloc()-a0)/1e6)
	m.set("exec.heaviest_query_wall_ms", 1e3*s.best[heaviest])
	r.note("heaviest query is %s: %.1f%% of the pass's wall time", s.names[heaviest], pct(s.best[heaviest], sum(s.best)))

	if mode == modeHost {
		// The bypass must be real: a host-native run may not touch the device.
		for _, name := range []string{"coop.stall_initial_pct", "coop.stall_fetch_pct", "coop.transfer_pct",
			"coop.transfer_mb_total", "coop.batches_total", "device.scan_pct", "device.join_pct",
			"device.slot_wait_pct", "device.scan_rows_total", "device.scan_mb_total", "device.slot_stalls_total"} {
			if m[name].Value != 0 {
				r.fail("job-host bypasses the device, but %s = %g", name, m[name].Value)
			}
		}
	}
	return r, nil
}

// spanP50 reports the median length of the spans called span, if any were
// recorded.
func spanP50(m values, rec *recorder, metric, span string, unit time.Duration) {
	if d := rec.durations(span, unit); len(d) > 0 {
		m.setSampled(metric, median(d), len(d), 0)
	}
}

// layerShares reads the executors' own reports of the traced pass: where the
// virtual time of the host and of the devices went, and what crossed between
// them. Shares are of the summed timelines, so heavy queries weigh more.
func layerShares(mode jobMode, outs []queryOut, want []expect, m values) {
	var host, build, probe, process, stallInit, stallFetch, transfer vclock.Duration
	var dev, scan, join, slot vclock.Duration
	var xferB int64
	var batches, retries, fallbacks, degraded, mismatches, deviceDecisions, worse int
	var speedups, skews []float64
	var gather, fleetHost vclock.Duration
	for i, o := range outs {
		if o.res == nil {
			continue // the op failed and is already counted
		}
		var hp *obs.QueryProfile
		if o.coop != nil {
			hp = o.coop.Profile()
			dev += o.coop.DeviceElapsed
			scan += hp.DevicePhase(obs.PhaseDeviceScan)
			join += hp.DevicePhase(obs.PhaseDeviceJoin)
			slot += hp.DevicePhase(obs.PhaseSlotWait)
			xferB += o.coop.TransferredBytes
			batches += o.coop.Batches
			retries += o.coop.FaultRetries
			if o.coop.FellBack {
				fallbacks++
			}
		} else {
			f := o.fleet
			hp = obs.Profile(f.Query, f.Mode, f.HostAccount, nil, f.Elapsed, 0)
			degraded += f.DegradedShards
			var slowest, total vclock.Duration
			var shards int
			for _, sh := range f.Shards {
				if sh.Elapsed == 0 {
					continue // the shard's partitions ran on the host
				}
				dp := obs.Profile(f.Query, f.Mode, nil, sh.Account, 0, sh.Elapsed)
				dev += sh.Elapsed
				scan += dp.DevicePhase(obs.PhaseDeviceScan)
				join += dp.DevicePhase(obs.PhaseDeviceJoin)
				slot += dp.DevicePhase(obs.PhaseSlotWait)
				total += sh.Elapsed
				slowest = max(slowest, sh.Elapsed)
				shards++
			}
			if shards > 0 {
				skews = append(skews, float64(slowest)/(float64(total)/float64(shards)))
				fleetHost += f.Elapsed
				gather += max(0, f.Elapsed-slowest)
			}
			if fleet.Fingerprint(f.Result) != want[i].fingerprint {
				mismatches++
			}
		}
		host += hp.Elapsed
		build += hp.HostPhase(obs.PhaseHostBuild)
		probe += hp.HostPhase(obs.PhaseHostProbe)
		process += hp.HostPhase(obs.PhaseHostProcess)
		stallInit += hp.HostPhase(obs.PhaseStallInitial)
		stallFetch += hp.HostPhase(obs.PhaseStallFetch)
		transfer += hp.HostPhase(obs.PhaseTransfer)
		if o.dec != nil {
			if o.dec.Hybrid || o.dec.NDP {
				deviceDecisions++
			}
			speedups = append(speedups, float64(want[i].refElapsed)/float64(o.elapsed))
			if o.elapsed > want[i].refElapsed {
				worse++
			}
		}
	}
	n := float64(len(outs))
	m.set("exec.host_build_pct", pct(float64(build), float64(host)))
	m.set("exec.host_probe_pct", pct(float64(probe), float64(host)))
	m.set("exec.host_process_pct", pct(float64(process), float64(host)))
	m.set("device.scan_pct", pct(float64(scan), float64(dev)))
	m.set("device.join_pct", pct(float64(join), float64(dev)))
	m.set("device.slot_wait_pct", pct(float64(slot), float64(dev)))
	m.set("optimizer.device_decisions_pct", pct(float64(deviceDecisions), n))
	if mode != modeFleet {
		m.set("coop.stall_initial_pct", pct(float64(stallInit), float64(host)))
		m.set("coop.stall_fetch_pct", pct(float64(stallFetch), float64(host)))
		m.set("coop.transfer_pct", pct(float64(transfer), float64(host)))
		m.set("coop.transfer_mb_total", float64(xferB)/1e6)
		m.set("coop.batches_total", float64(batches))
		m.set("coop.retries_total", float64(retries))
		m.set("coop.fallbacks_total", float64(fallbacks))
	}
	switch mode {
	case modeHybrid:
		m.set("coop.virtual_speedup_geomean", geomean(speedups))
		m.set("optimizer.worse_than_host_pct", pct(float64(worse), n))
	case modeFleet:
		m.set("fleet.virtual_speedup_geomean", geomean(speedups))
		m.setSampled("fleet.shard_skew_p90", quantile(skews, 0.9), len(skews), 0)
		m.set("fleet.host_gather_pct", pct(float64(gather), float64(fleetHost)))
		m.set("fleet.degraded_shards_total", float64(degraded))
		m.set("fleet.fingerprint_mismatches", float64(mismatches))
	}
}
