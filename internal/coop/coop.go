// Package coop implements hybridNDP's cooperative execution model (paper §4)
// and the baseline execution stacks. A hybrid run splits the physical plan
// at Hk, ships the NDP-PQEP to the device simulator, pre-builds the host
// PQEP's structures while the device performs its initial execution, and then
// consumes intermediate result sets slot by slot, so both engines overlap and
// only stall on each other when the shared buffer runs full (device) or
// empty (host). All interaction is priced on two virtual timelines whose
// rendezvous points reproduce the phase structure of paper Fig. 17 / Table 4.
package coop

import (
	"fmt"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/num"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Kind selects the execution strategy.
type Kind int

// Execution strategies. BlockOnly and HostNative run the whole plan on the
// host over the BLK / native stacks (paper Fig. 10 baselines); NDPOnly
// offloads the complete plan; Hybrid splits it.
const (
	BlockOnly Kind = iota
	HostNative
	NDPOnly
	Hybrid
)

func (k Kind) String() string {
	switch k {
	case BlockOnly:
		return "block"
	case HostNative:
		return "native"
	case NDPOnly:
		return "ndp"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Strategy is a fully specified execution choice.
type Strategy struct {
	Kind Kind
	// Split is the number of join steps executed on device for Hybrid:
	// -1 = H0 (every leaf selection offloaded, all joins on host),
	// k ≥ 1 = Hk (leaves 0..k and joins 1..k offloaded).
	Split int
}

// SplitLabel renders H0..Hn / stack names.
func (s Strategy) String() string {
	if s.Kind != Hybrid {
		return s.Kind.String()
	}
	if s.Split < 0 {
		return "H0"
	}
	return fmt.Sprintf("H%d", s.Split)
}

// DecisionStrategy converts an optimizer decision into the strategy that
// executes it — the one decision→strategy mapping every layer (controller,
// scheduler, serve, harness, façade) shares. The optimizer numbers H0 as
// Split 0; executable strategies encode it as Split -1.
func DecisionStrategy(d *optimizer.Decision) Strategy {
	switch {
	case d.Hybrid:
		split := d.Split
		if split == 0 {
			split = -1
		}
		return Strategy{Kind: Hybrid, Split: split}
	case d.NDP:
		return Strategy{Kind: NDPOnly}
	default:
		return Strategy{Kind: HostNative}
	}
}

// BatchEvent records one intermediate result set handoff for timeline plots.
type BatchEvent struct {
	Idx         int
	Rows        int
	Bytes       int64
	DeviceReady vclock.Time // device finished producing the slot
	HostFetched vclock.Time // host completed the transfer
	HostDone    vclock.Time // host finished processing the batch
}

// Report is the outcome of one execution.
type Report struct {
	Query    string
	Strategy Strategy
	Result   *exec.Result
	// Elapsed is the end-to-end virtual runtime (host completion).
	Elapsed vclock.Duration
	// DeviceElapsed is the device timeline's completion instant (zero for
	// host-only strategies).
	DeviceElapsed vclock.Duration

	HostAccount   map[string]vclock.Duration
	DeviceAccount map[string]vclock.Duration

	Batches          int
	TransferredBytes int64
	Timeline         []BatchEvent
	DeviceMemory     device.MemoryPlan

	// FaultRetries counts device-command retries forced by injected faults;
	// the wasted virtual time of every failed attempt is folded into Elapsed.
	FaultRetries int
	// FellBack reports that the run abandoned the device after exhausting its
	// retries and re-executed the whole plan host-only.
	FellBack bool
}

// Profile aggregates the report's timeline accounts into the paper's phase
// structure (obs.QueryProfile): host phases partition the end-to-end virtual
// runtime, device phases the device timeline span, with explicit stall
// accounting.
func (r *Report) Profile() *obs.QueryProfile {
	var dev map[string]vclock.Duration
	if len(r.DeviceAccount) > 0 {
		dev = r.DeviceAccount
	}
	return obs.Profile(r.Query, r.Strategy.String(), r.HostAccount, dev, r.Elapsed, r.DeviceElapsed)
}

// WaitInitial reports the host's initial stall waiting for the first device
// result (Fig. 17 / Table 4 "Wait (initial device exec.)").
func (r *Report) WaitInitial() vclock.Duration { return r.HostAccount[hw.CatWaitInitial] }

// WaitFetch reports host stalls on later batches.
func (r *Report) WaitFetch() vclock.Duration { return r.HostAccount[hw.CatWaitFetch] }

// DeviceWaitSlots reports device stalls on exhausted buffer slots.
func (r *Report) DeviceWaitSlots() vclock.Duration { return r.DeviceAccount[hw.CatWaitSlots] }

// CacheFormat overrides the device's intermediate-result cache format.
type CacheFormat int

// Cache format overrides (paper §4.2): Auto switches to pointer format above
// two tables; the forced settings exist for the ablation benchmarks.
const (
	CacheAuto CacheFormat = iota
	CacheRow
	CachePointer
)

// Executor runs plans under any strategy.
type Executor struct {
	Cat   *table.Catalog
	DB    *kv.DB
	Model hw.Model
	// Chunks overrides the driving-table partition count (0 = auto).
	Chunks int
	// CacheFormat overrides the device cache-structure choice.
	CacheFormat CacheFormat
	// Metrics receives per-run counters/histograms (batches, transfer volume,
	// stall time, cache hit rates). Nil disables metric recording; the
	// registry is race-safe, so one registry may be shared by concurrent runs.
	Metrics *obs.Registry
	// Faults, when set to an enabled plan, deterministically injects device
	// faults (see internal/fault): flash read errors and per-batch
	// stall/crash/corruption on device strategies. Host-side execution — and
	// therefore the fallback path — is never injected: the smart-storage
	// device is the unreliable component of the model.
	Faults *fault.Plan
	// MaxRetries caps device-command retries before host-only fallback
	// (0 = default of 2, negative = no retries).
	MaxRetries int
	// Budget, when set, is the global token-bucket retry budget shared by
	// every run of this executor (and, in fleet settings, with shard hedges):
	// each retry spends a token, each successful run refills a fraction, and
	// a drained bucket sends faulted runs straight to the host fallback so a
	// fault storm cannot amplify into a retry storm. Nil = unlimited.
	Budget *fault.RetryBudget
	// Deadline is the default per-run virtual-time budget (0 = none): once a
	// faulted device attempt can no longer finish inside it, the run stops
	// retrying and falls back to the host immediately. RunDeadline overrides
	// it per run.
	Deadline vclock.Duration
	// BatchSize sets the row capacity of the columnar batches the engines
	// this executor builds process at a time (0 = exec.DefaultBatchSize).
	// Virtual-time charges are byte-identical for every value; the knob only
	// trades wall-clock locality against scratch memory.
	BatchSize int

	// scratch recycles the engines' working memory across this executor's runs.
	scratch exec.ScratchPool
}

// maxRetries resolves the retry cap.
func (x *Executor) maxRetries() int {
	if x.MaxRetries < 0 {
		return 0
	}
	if x.MaxRetries == 0 {
		return 2
	}
	return x.MaxRetries
}

// injectorFor derives the per-run fault injector. The stream is keyed by
// query and strategy, so concurrent scheduling order can never perturb a
// run's fault episode. Nil when fault injection is disabled.
func (x *Executor) injectorFor(p *exec.Plan, s Strategy) *fault.Injector {
	in := x.Faults.Injector(p.Query.Name + "|" + s.String())
	in.Bind(x.Metrics)
	return in
}

// applyCacheFormat applies the override to a device engine.
func (x *Executor) applyCacheFormat(eng *exec.Engine) {
	switch x.CacheFormat {
	case CacheRow:
		eng.PointerCache = false
	case CachePointer:
		eng.PointerCache = true
	}
}

// NewExecutor builds an executor over the catalog.
func NewExecutor(cat *table.Catalog, db *kv.DB, m hw.Model) *Executor {
	return &Executor{Cat: cat, DB: db, Model: m}
}

// hostEngine builds a host-side engine on tl with a cold block cache (the
// model's fraction of the stored dataset), so strategy comparisons are
// order-independent, and per-run Bloom-filter stats when a metrics registry
// is bound.
func (x *Executor) hostEngine(tl *vclock.Timeline, rates hw.Rates, ls *exec.Lease) *exec.Engine {
	eng := &exec.Engine{Cat: x.Cat, TL: tl, R: rates, Scratch: ls.Scratch(),
		Cache: x.DB.NewBlockCache(x.Model.HostCacheFraction), BatchSize: x.BatchSize}
	if x.Metrics != nil {
		eng.Bloom = &lsm.BloomStats{}
	}
	return eng
}

// Run executes the plan under the given strategy.
func (x *Executor) Run(p *exec.Plan, s Strategy) (*Report, error) {
	return x.RunTraced(p, s, nil)
}

// RunTraced executes the plan under the given strategy, recording structured
// spans into tr (nil tr disables tracing at the cost of a pointer test per
// span site). The trace is per-run state, so one Executor can serve
// concurrent traced runs, each with its own Trace.
func (x *Executor) RunTraced(p *exec.Plan, s Strategy, tr *obs.Trace) (*Report, error) {
	return x.RunDeadline(p, s, tr, x.Deadline)
}

// RunDeadline executes like RunTraced under an explicit per-run virtual-time
// deadline (0 = none). The deadline is advisory for fault recovery, not a
// hard abort: a fault-free run past its deadline still completes (the serve
// layer accounts the SLO miss), but a faulted run whose next device attempt
// cannot fit inside the remaining budget skips the retries and re-executes
// host-side at once — the cheapest completion still available.
func (x *Executor) RunDeadline(p *exec.Plan, s Strategy, tr *obs.Trace, deadline vclock.Duration) (*Report, error) {
	// The run's one release point: every engine built below — host, device,
	// those of failed attempts and of the fallback — works in a scratch of
	// this lease, and they all go back once the report is built.
	ls := x.scratch.Lease()
	defer ls.Release()
	var rep *Report
	var err error
	switch s.Kind {
	case BlockOnly:
		rep, err = x.runHostOnly(p, s, hw.BlockStackRates(x.Model), tr, ls)
	case HostNative:
		rep, err = x.runHostOnly(p, s, hw.HostRates(x.Model), tr, ls)
	case NDPOnly:
		rep, err = x.runNDPOnly(p, s, tr, deadline, ls)
	case Hybrid:
		rep, err = x.runHybrid(p, s, tr, deadline, ls)
	default:
		return nil, fmt.Errorf("coop: unknown strategy %v", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	if rep.FaultRetries == 0 && !rep.FellBack {
		x.Budget.OnSuccess()
	}
	x.recordRun(rep)
	return rep, nil
}

// recordRun publishes one finished run's outcome into the metrics registry
// (no-op on a nil registry).
func (x *Executor) recordRun(r *Report) {
	m := x.Metrics
	if m == nil {
		return
	}
	m.Counter("coop.runs." + r.Strategy.Kind.String()).Inc()
	m.Histogram("coop.elapsed.ns", obs.DefaultDurationBuckets).Observe(float64(r.Elapsed))
	if r.Batches > 0 {
		m.Counter("coop.batches").Add(int64(r.Batches))
		m.Histogram("coop.batch.count", obs.DefaultSizeBuckets).Observe(float64(r.Batches))
	}
	if r.TransferredBytes > 0 {
		m.Counter("coop.transfer.bytes").Add(r.TransferredBytes)
	}
	m.Counter("coop.stall.host.initial.ns").Add(int64(r.WaitInitial()))
	m.Counter("coop.stall.host.fetch.ns").Add(int64(r.WaitFetch()))
	m.Counter("coop.stall.device.slots.ns").Add(int64(r.DeviceWaitSlots()))
}

// recordStorage publishes a host engine's storage-path observability: block
// cache hit/miss counts plus the derived hit rate, and Bloom-filter probe
// outcomes (no-op on a nil registry). Counters only ever accumulate virtual
// simulation outcomes, so the dump stays deterministic.
func (x *Executor) recordStorage(eng *exec.Engine) {
	m := x.Metrics
	if m == nil || eng == nil {
		return
	}
	if eng.Cache != nil {
		hits, misses, _ := eng.Cache.Stats()
		m.Counter("coop.host.cache.hits").Add(hits)
		m.Counter("coop.host.cache.misses").Add(misses)
		h := m.Counter("coop.host.cache.hits").Value()
		n := h + m.Counter("coop.host.cache.misses").Value()
		if n > 0 {
			m.Gauge("coop.host.cache.hitrate").Set(float64(h) / float64(n))
		}
	}
	if neg, pos := eng.Bloom.Counts(); neg+pos > 0 {
		m.Counter("coop.host.bloom.negative").Add(neg)
		m.Counter("coop.host.bloom.positive").Add(pos)
	}
}

// runHostOnly executes the whole plan on the host stack. All table data
// crosses the interconnect as part of the host flash path.
func (x *Executor) runHostOnly(p *exec.Plan, s Strategy, rates hw.Rates, tr *obs.Trace, ls *exec.Lease) (*Report, error) {
	tl := vclock.NewTimeline("host")
	eng := x.hostEngine(tl, rates, ls)
	root := tr.Start(tl, "query:"+p.Query.Name).Attr("strategy", s.String())
	res, err := eng.RunPlan(p)
	root.End()
	if err != nil {
		return nil, err
	}
	x.recordStorage(eng)
	return &Report{
		Query:       p.Query.Name,
		Strategy:    s,
		Result:      res,
		Elapsed:     vclock.Duration(tl.Now()),
		HostAccount: tl.Account(),
	}, nil
}

// withRecovery drives a device strategy to completion on hostTL. attempt runs
// one full device-side execution and returns the device timeline's position
// at exit; injected faults (crash, corruption, flash read errors) are retried
// with capped exponential backoff after the host has waited out the failed
// attempt, and once maxRetries is exhausted the original plan re-executes
// host-only on the same timeline. Every failed attempt's virtual time is
// therefore folded into the final report's Elapsed. Non-injected errors
// (planning bugs, validation) propagate immediately.
//
// Two more guards cut the retry loop short: a per-run deadline (a retry whose
// backoff alone pushes past the remaining virtual budget is pointless — the
// host fallback is the only completion left worth buying) and the shared
// retry budget (a drained bucket means the system is already saturated with
// recovery work, so this run must not add more device attempts).
func (x *Executor) withRecovery(orig *exec.Plan, s Strategy, tr *obs.Trace, ls *exec.Lease,
	hostTL *vclock.Timeline, deadline vclock.Duration, attempt func() (*Report, vclock.Time, error)) (*Report, error) {

	retries := 0
	for {
		rep, devNow, err := attempt()
		if err == nil {
			rep.FaultRetries = retries
			return rep, nil
		}
		if !fault.Injected(err) {
			return nil, err
		}
		if retries >= x.maxRetries() {
			return x.fallbackHost(orig, s, tr, ls, hostTL, devNow, retries, err)
		}
		if deadline > 0 && vclock.Duration(devNow)+retryBackoff(retries+1) >= deadline {
			if m := x.Metrics; m != nil {
				m.Counter("coop.deadline.fallback").Inc()
			}
			return x.fallbackHost(orig, s, tr, ls, hostTL, devNow, retries, err)
		}
		if !x.Budget.Allow() {
			if m := x.Metrics; m != nil {
				m.Counter("coop.retry.budget_exhausted").Inc()
			}
			return x.fallbackHost(orig, s, tr, ls, hostTL, devNow, retries, err)
		}
		retries++
		// The host discovers the failure no earlier than the device reached
		// it, then backs off before reissuing the command.
		rsp := tr.Start(hostTL, "coop.retry").AttrInt("attempt", int64(retries)).
			Attr("cause", err.Error())
		hostTL.WaitUntil(devNow, hw.CatFaultWait)
		hostTL.Charge(hw.CatBackoff, retryBackoff(retries))
		rsp.End()
		if m := x.Metrics; m != nil {
			m.Counter("coop.retry").Inc()
		}
	}
}

// retryBackoff is the capped exponential backoff before retry n (1-based):
// 100µs doubling per attempt, capped at 5ms.
func retryBackoff(n int) vclock.Duration {
	d := vclock.Duration(100e3)
	for i := 1; i < n; i++ {
		d *= 2
	}
	if d > vclock.Duration(5e6) {
		d = vclock.Duration(5e6)
	}
	return d
}

// fallbackHost re-executes the original plan host-only after the device was
// given up on. It runs on the same host timeline, so the report's Elapsed
// includes everything wasted on the failed device attempts.
func (x *Executor) fallbackHost(p *exec.Plan, s Strategy, tr *obs.Trace, ls *exec.Lease,
	hostTL *vclock.Timeline, devNow vclock.Time, retries int, cause error) (*Report, error) {

	if m := x.Metrics; m != nil {
		m.Counter("coop.fallback.host").Inc()
	}
	fsp := tr.Start(hostTL, "coop.fallback.host").Attr("cause", cause.Error())
	hostTL.WaitUntil(devNow, hw.CatFaultWait)
	eng := x.hostEngine(hostTL, hw.HostRates(x.Model), ls)
	res, err := eng.RunPlan(p)
	fsp.End()
	if err != nil {
		return nil, err
	}
	x.recordStorage(eng)
	return &Report{
		Query:        p.Query.Name,
		Strategy:     s,
		Result:       res,
		Elapsed:      vclock.Duration(hostTL.Now()),
		HostAccount:  hostTL.Account(),
		FaultRetries: retries,
		FellBack:     true,
	}, nil
}

// launch starts one device attempt of cmd: a fresh device carrying this run's
// bindings (so a retried command replays its builds and scans instead of
// resuming half-poisoned state), its root span on the device track, and the
// NDP invocation. The caller ends the returned span.
func (x *Executor) launch(cmd *device.Command, mp device.MemoryPlan, s Strategy, tr *obs.Trace, ls *exec.Lease,
	inj *fault.Injector, hostTL *vclock.Timeline) (*device.Device, *exec.Engine, *obs.Span, error) {

	dev := device.New(x.Model, x.Cat)
	dev.BatchSize = x.BatchSize
	dev.Scratch = ls.Scratch()
	dev.Trace = tr
	dev.Metrics = x.Metrics
	dev.Faults = inj
	root := tr.Start(dev.TL, "device:"+cmd.Plan.Query.Name).Attr("strategy", s.String())
	eng, err := dev.Launch(cmd, mp, hostTL)
	if err != nil {
		root.End()
		return nil, nil, nil, err
	}
	x.applyCacheFormat(eng)
	return dev, eng, root, nil
}

// runNDPOnly offloads the complete plan including grouping/aggregation; the
// host only issues the command and fetches the final result.
func (x *Executor) runNDPOnly(p *exec.Plan, s Strategy, tr *obs.Trace, deadline vclock.Duration, ls *exec.Lease) (*Report, error) {
	snap, err := device.Snapshot(x.DB, p, -1) // full plan: all tables device-read
	if err != nil {
		return nil, err
	}
	cmd := &device.Command{Plan: p, SplitAfter: len(p.Steps), Snapshot: snap, Chunks: 1}
	mp := device.PlanMemory(x.Model, p, cmd.SplitAfter)
	inj := x.injectorFor(p, s)
	hostTL := vclock.NewTimeline("host")

	root := tr.Start(hostTL, "query:"+p.Query.Name).Attr("strategy", s.String())
	defer root.End()

	return x.withRecovery(p, s, tr, ls, hostTL, deadline, func() (*Report, vclock.Time, error) {
		dev, eng, devRoot, err := x.launch(cmd, mp, s, tr, ls, inj, hostTL)
		if err != nil {
			return nil, 0, err // a rejected command is not retried
		}
		res, err := dev.RunPlan(eng, p)
		devRoot.End()
		if err != nil {
			return nil, dev.TL.Now(), err
		}
		// Host waits for device completion, then transfers the final result.
		sp := tr.Start(hostTL, "host.wait.device")
		hostTL.WaitUntil(dev.TL.Now(), hw.CatWaitInitial)
		sp.End()
		sp = tr.Start(hostTL, "transfer.result").AttrInt("bytes", res.Bytes)
		hw.HostRates(x.Model).Transfer(hostTL, res.Bytes, x.Model.SharedBufferSlot)
		sp.End()

		return &Report{
			Query:            p.Query.Name,
			Strategy:         s,
			Result:           res,
			Elapsed:          vclock.Duration(hostTL.Now()),
			DeviceElapsed:    vclock.Duration(dev.TL.Now()),
			HostAccount:      hostTL.Account(),
			DeviceAccount:    dev.TL.Account(),
			TransferredBytes: res.Bytes,
			DeviceMemory:     mp,
		}, dev.TL.Now(), nil
	})
}

// runHybrid is the cooperative execution path: the interleaved single-device
// driver, where the host consumes result sets while the device produces the
// next ones and shared-slot back-pressure couples the two timelines.
func (x *Executor) runHybrid(orig *exec.Plan, s Strategy, tr *obs.Trace, deadline vclock.Duration, ls *exec.Lease) (*Report, error) {
	p := orig
	split := s.Split
	if split == 0 {
		split = -1 // H0
	}
	if split > len(p.Steps) {
		return nil, fmt.Errorf("coop: split H%d exceeds the plan's %d joins", split, len(p.Steps))
	}
	// Join-free (single-table) plans execute as H0: the device scans and
	// filters the base table, ships survivor chunks through the shared
	// buffer, and the host finalizes (projection / aggregation). Interior
	// splits are rejected above since len(p.Steps) == 0.
	if split < 0 {
		p = orig.WithBufferedJoins()
	}
	snap, err := device.Snapshot(x.DB, p, split)
	if err != nil {
		return nil, err
	}
	chunks := x.Chunks
	if chunks <= 0 {
		chunks = device.DrivingChunks(x.Model, x.Cat, p)
	}
	cmd := &device.Command{Plan: p, SplitAfter: split, Snapshot: snap, Chunks: chunks}
	mp := device.PlanMemory(x.Model, p, split)
	inj := x.injectorFor(p, s)
	hostTL := vclock.NewTimeline("host")

	root := tr.Start(hostTL, "query:"+p.Query.Name).Attr("strategy", s.String())
	defer root.End()

	// The fallback re-executes the ORIGINAL plan (with its BNLI index joins
	// intact): the H0 rewrite only makes sense with device-seeded inners.
	return x.withRecovery(orig, s, tr, ls, hostTL, deadline, func() (*Report, vclock.Time, error) {
		dev, devEng, devRoot, err := x.launch(cmd, mp, s, tr, ls, inj, hostTL)
		if err != nil {
			return nil, 0, err // a rejected command is not retried
		}
		devRoot.AttrInt("chunks", int64(cmd.Chunks))
		// Ending the device root span on every exit keeps the per-timeline
		// span stack intact for a retry replaying this command on the trace.
		defer devRoot.End()
		rep, err := x.hybridAttempt(dev, devEng, cmd, s, tr, ls, inj, hostTL)
		if err != nil {
			return nil, dev.TL.Now(), err
		}
		rep.DeviceMemory = mp
		return rep, dev.TL.Now(), nil
	})
}

// hostSide is the host half of one cooperative attempt: the host engine on the
// pipeline it shares with the device (the device owns the inner state of its
// join steps, the host owns the rest), and what the hand-off loop accumulates.
type hostSide struct {
	x        *Executor
	tr       *obs.Trace
	inj      *fault.Injector
	tl       *vclock.Timeline
	rates    hw.Rates
	eng      *exec.Engine
	pl       *exec.Pipeline
	hostFrom int // first join step the host executes on driving batches
	report   *Report
	tuples   []exec.Tuple
	// fetchDone[j] is when the host finished fetching batch j, i.e. when its
	// shared-buffer slot became free again.
	fetchDone []vclock.Time
}

// hybridAttempt runs one launched cooperative attempt to completion: host
// pre-build overlapping the device's initial execution, the interleaved
// hand-off loop, and the host-side finalize.
func (x *Executor) hybridAttempt(dev *device.Device, devEng *exec.Engine, cmd *device.Command,
	s Strategy, tr *obs.Trace, ls *exec.Lease, inj *fault.Injector, hostTL *vclock.Timeline) (*Report, error) {

	p := cmd.Plan
	h := &hostSide{x: x, tr: tr, inj: inj, tl: hostTL, rates: hw.HostRates(x.Model),
		report: &Report{Query: p.Query.Name, Strategy: s}}
	h.eng = x.hostEngine(hostTL, h.rates, ls)
	var err error
	if h.pl, err = h.eng.StartPipeline(p); err != nil {
		return nil, err
	}
	if cmd.SplitAfter > 0 {
		// Hk: the host joins steps[split:] over host-scanned inners; build
		// their hash tables now, while the device is busy.
		h.hostFrom = cmd.SplitAfter
		if err := h.prebuild(); err != nil {
			return nil, err
		}
	}
	if err := dev.Run(cmd, h.pl, devEng, h.consume, h.slotFreed); err != nil {
		return nil, err
	}

	fsp := tr.Start(hostTL, "host.finalize").AttrInt("rows", int64(len(h.tuples)))
	res, err := h.eng.Finalize(h.pl, h.tuples)
	fsp.End()
	if err != nil {
		return nil, err
	}
	x.recordStorage(h.eng)
	rep := h.report
	rep.Result = res
	rep.Elapsed = vclock.Duration(hostTL.Now())
	rep.DeviceElapsed = vclock.Duration(dev.TL.Now())
	rep.HostAccount = hostTL.Account()
	rep.DeviceAccount = dev.TL.Account()
	return rep, nil
}

// prebuild builds the hash tables of the host-side buffered joins.
func (h *hostSide) prebuild() error {
	steps := h.pl.Plan.Steps
	for si := h.hostFrom; si < len(steps); si++ {
		if steps[si].Type == exec.BNLI {
			continue
		}
		bsp := h.tr.Start(h.tl, "host.build.inner").
			Attr("alias", steps[si].Right.Ref.Alias).AttrInt("step", int64(si))
		_, err := h.eng.BuildInner(h.pl, si)
		bsp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// slotFreed reports when the host drained batch j's shared-buffer slot (the
// device's back-pressure rendezvous).
func (h *hostSide) slotFreed(j int) (vclock.Time, bool) {
	if j < len(h.fetchDone) {
		return h.fetchDone[j], true
	}
	return 0, false
}

// consume is the host side of one hand-off: wait for the slot, fetch it over
// the interconnect, verify a sealed payload, and push the batch through the
// host PQEP.
func (h *hostSide) consume(b device.Batch) error {
	rep := h.report
	idx := int64(rep.Batches)
	cat, spName := hw.CatWaitFetch, "host.wait.fetch"
	if idx == 0 {
		cat, spName = hw.CatWaitInitial, "host.wait.initial"
	}
	wsp := h.tr.Start(h.tl, spName).AttrInt("batch", idx)
	stall := h.tl.WaitUntil(b.Ready, cat)
	wsp.Attr("stall", stall.String()).End()
	tsp := h.tr.Start(h.tl, "host.fetch").AttrInt("batch", idx).AttrInt("bytes", b.Bytes)
	h.rates.Transfer(h.tl, num.MaxI64(b.Bytes, 64), h.x.Model.SharedBufferSlot)
	tsp.End()
	h.fetchDone = append(h.fetchDone, h.tl.Now())
	rep.TransferredBytes += b.Bytes
	rep.Batches++
	if b.Sum != 0 {
		// Sealed batch (fault injection active): corrupt in transit per the
		// plan, then verify the checksum host-side.
		if h.inj.TransferCorrupt() {
			b.CorruptInTransfer()
		}
		if verr := b.Verify(); verr != nil {
			return fmt.Errorf("batch %d: %w", idx, verr)
		}
	}

	ev := BatchEvent{Idx: int(idx), Bytes: b.Bytes, DeviceReady: b.Ready, HostFetched: h.tl.Now()}
	psp := h.tr.Start(h.tl, "host.process.batch").AttrInt("batch", idx)
	var err error
	if b.LeafAlias != "" {
		psp.Attr("leaf", b.LeafAlias)
		ev.Rows = b.Cols.Len()
		err = h.seedLeaf(b)
	} else {
		ev.Rows = len(b.Tuples)
		err = h.joinDriving(b.Tuples)
	}
	if err != nil {
		psp.End()
		return err
	}
	psp.AttrInt("rows", int64(ev.Rows)).End()
	if m := h.x.Metrics; m != nil {
		m.Histogram("coop.batch.rows", obs.DefaultSizeBuckets).Observe(float64(ev.Rows))
		m.Histogram("coop.batch.bytes", obs.DefaultSizeBuckets).Observe(float64(b.Bytes))
	}
	ev.HostDone = h.tl.Now()
	rep.Timeline = append(rep.Timeline, ev)
	return nil
}

// seedLeaf feeds an H0 leaf batch straight into the inner side of the host
// join over that table.
func (h *hostSide) seedLeaf(b device.Batch) error {
	for si, st := range h.pl.Plan.Steps {
		if st.Right.Ref.Alias == b.LeafAlias {
			return h.eng.SeedInnerCols(h.pl, si, b.Cols)
		}
	}
	return nil
}

// joinDriving runs one driving-chunk batch through the host PQEP.
func (h *hostSide) joinDriving(batch []exec.Tuple) error {
	for si := h.hostFrom; si < len(h.pl.Plan.Steps); si++ {
		jsp := h.tr.Start(h.tl, "host.join").AttrInt("step", int64(si)).
			AttrInt("in.rows", int64(len(batch)))
		var err error
		batch, err = h.eng.JoinStep(h.pl, si, batch)
		jsp.AttrInt("out.rows", int64(len(batch))).End()
		if err != nil {
			return err
		}
	}
	h.tuples = append(h.tuples, batch...)
	return nil
}
