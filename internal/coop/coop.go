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
	"strconv"
	"strings"

	"hybridndp/internal/cost"
	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Kind selects the execution strategy — the cost model's vocabulary, so the
// strategy an executor runs is the one the optimizer and the scheduler price.
type Kind = cost.Kind

// Execution strategies. BlockOnly and HostNative run the whole plan on the
// host over the BLK / native stacks (paper Fig. 10 baselines); NDPOnly
// offloads the complete plan; Hybrid splits it.
const (
	BlockOnly  = cost.BlockOnly
	HostNative = cost.HostNative
	NDPOnly    = cost.NDPOnly
	Hybrid     = cost.Hybrid
)

// Strategy is a fully specified execution choice.
type Strategy struct {
	Kind Kind
	// Split is the split point Hk for Hybrid, numbered as everywhere from
	// the optimizer to the device command: 0 = H0 (every leaf selection
	// offloaded, all joins on host), k ≥ 1 = Hk (leaves 0..k and joins 1..k
	// offloaded).
	Split int
}

// String renders H0..Hn / stack names; ParseStrategy reads them back.
func (s Strategy) String() string {
	if s.Kind != Hybrid {
		return s.Kind.String()
	}
	return fmt.Sprintf("H%d", s.Split)
}

// ParseStrategy parses a strategy label as String prints it: "native",
// "block", "ndp", or a hybrid split "H0".."Hn".
func ParseStrategy(label string) (Strategy, error) {
	for _, k := range []Kind{BlockOnly, HostNative, NDPOnly} {
		if label == k.String() {
			return Strategy{Kind: k}, nil
		}
	}
	if digits, ok := strings.CutPrefix(label, "H"); ok {
		if k, err := strconv.Atoi(digits); err == nil && k >= 0 && digits == strconv.Itoa(k) {
			return Strategy{Kind: Hybrid, Split: k}, nil
		}
	}
	return Strategy{}, fmt.Errorf("coop: unknown strategy label %q", label)
}

// DecisionStrategy converts an optimizer decision into the strategy that
// executes it — the one decision→strategy mapping every layer (controller,
// scheduler, serve, harness, façade) shares.
func DecisionStrategy(d *optimizer.Decision) Strategy {
	switch {
	case d.Hybrid:
		return Strategy{Kind: Hybrid, Split: d.Split}
	case d.NDP:
		return Strategy{Kind: NDPOnly}
	default:
		return Strategy{Kind: HostNative}
	}
}

// Splits enumerates the hybrid strategies of plan p, H0 through Hn: the one
// list every layer that sweeps or offers split points walks. A join-free plan
// has H0 only.
func Splits(p *exec.Plan) []Strategy {
	out := make([]Strategy, 0, len(p.Steps)+1)
	for k := 0; k <= len(p.Steps); k++ {
		out = append(out, Strategy{Kind: Hybrid, Split: k})
	}
	return out
}

// BatchEvent records one intermediate result set handoff for timeline plots.
type BatchEvent struct {
	Idx         int
	Rows        int
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

// CacheFormat overrides the device's intermediate-result cache format. The
// zero value keeps the engine's own choice, which switches to pointer format
// above two tables (paper §4.2).
type CacheFormat int

// Cache format overrides; the forced settings exist for the ablation
// benchmarks.
const (
	CacheRow CacheFormat = iota + 1
	CachePointer
)

// Executor runs plans under any strategy.
type Executor struct {
	Cat   *table.Catalog
	DB    *kv.DB
	Model hw.Model
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
	// Deadline is the default per-run virtual-time budget (0 = none): once a
	// faulted device attempt can no longer finish inside it, the run stops
	// retrying and falls back to the host immediately. RunDeadline overrides
	// it per run.
	Deadline vclock.Duration

	// scratch recycles the engines' working memory across this executor's runs.
	scratch exec.ScratchPool
}

// maxRetries caps device-command retries before the host-only fallback.
const maxRetries = 2

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
	b := device.Bindings{Model: &x.Model, Cat: x.Cat, Lease: ls, Trace: tr, Metrics: x.Metrics}
	var rep *Report
	var err error
	switch s.Kind {
	case BlockOnly:
		rep, err = x.runHostOnly(p, s, hw.BlockStackRates(x.Model), &b)
	case HostNative:
		rep, err = x.runHostOnly(p, s, hw.HostRates(x.Model), &b)
	case NDPOnly:
		rep, err = x.runNDPOnly(p, s, &b, deadline)
	case Hybrid:
		rep, err = x.runHybrid(p, s, &b, deadline)
	default:
		return nil, fmt.Errorf("coop: unknown strategy %v", s.Kind)
	}
	if err != nil {
		return nil, err
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
func (x *Executor) runHostOnly(p *exec.Plan, s Strategy, rates hw.Rates, b *device.Bindings) (*Report, error) {
	tl := vclock.NewTimeline("host")
	eng := b.HostEngine(tl, rates)
	root := b.Trace.Start(tl, "query:"+p.Query.Name).Attr("strategy", s.String())
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

// withRecovery drives a device run to completion on its host timeline, body
// running one full device-side execution per attempt. Injected faults (crash,
// corruption, flash read errors) are retried with capped exponential backoff
// after the host has waited out the failed attempt, and once maxRetries is
// exhausted the original plan re-executes host-only on the same timeline.
// Every failed attempt's virtual time is therefore folded into the final
// report's Elapsed. Non-injected errors (planning bugs, validation) propagate
// immediately.
//
// A per-run deadline cuts the retry loop short: a retry whose backoff alone
// pushes past the remaining virtual budget is pointless — the host fallback
// is the only completion left worth buying.
func (x *Executor) withRecovery(orig *exec.Plan, r *deviceRun, deadline vclock.Duration,
	body func(*deviceRun) (*Report, error)) (*Report, error) {

	retries := 0
	for {
		rep, err := x.attempt(r, body)
		if err == nil {
			rep.FaultRetries = retries
			return rep, nil
		}
		if !fault.Injected(err) {
			return nil, err
		}
		if retries >= maxRetries {
			return x.fallbackHost(orig, r, retries, err)
		}
		devNow := r.dev.TL.Now()
		if deadline > 0 && vclock.Duration(devNow)+retryBackoff(retries+1) >= deadline {
			if m := x.Metrics; m != nil {
				m.Counter("coop.deadline.fallback").Inc()
			}
			return x.fallbackHost(orig, r, retries, err)
		}
		retries++
		// The host discovers the failure no earlier than the device reached
		// it, then backs off before reissuing the command.
		rsp := r.b.Trace.Start(r.hostTL, "coop.retry").AttrInt("attempt", int64(retries)).
			Attr("cause", err.Error())
		r.hostTL.WaitUntil(devNow, hw.CatFaultWait)
		r.hostTL.Charge(hw.CatBackoff, retryBackoff(retries))
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
// given up on. It runs on the run's host timeline, so the report's Elapsed
// includes everything wasted on the failed device attempts.
func (x *Executor) fallbackHost(p *exec.Plan, r *deviceRun, retries int, cause error) (*Report, error) {
	if m := x.Metrics; m != nil {
		m.Counter("coop.fallback.host").Inc()
	}
	hostTL := r.hostTL
	fsp := r.b.Trace.Start(hostTL, "coop.fallback.host").Attr("cause", cause.Error())
	hostTL.WaitUntil(r.dev.TL.Now(), hw.CatFaultWait)
	eng := r.b.HostEngine(hostTL, hw.HostRates(x.Model))
	res, err := eng.RunPlan(p)
	fsp.End()
	if err != nil {
		return nil, err
	}
	x.recordStorage(eng)
	return &Report{
		Query:        p.Query.Name,
		Strategy:     r.s,
		Result:       res,
		Elapsed:      vclock.Duration(hostTL.Now()),
		HostAccount:  hostTL.Account(),
		FaultRetries: retries,
		FellBack:     true,
	}, nil
}

// deviceRun is one run of a device strategy: its NDP command and what every
// attempt at it shares, plus the device, engine and device-track root span of
// the attempt in flight.
type deviceRun struct {
	s      Strategy
	b      device.Bindings
	cmd    *device.Command
	mp     device.MemoryPlan
	inj    *fault.Injector
	hostTL *vclock.Timeline
	dev    *device.Device
	eng    *exec.Engine // the device engine
	root   *obs.Span
}

// runDevice drives a device strategy to completion on a fresh host timeline:
// the NDP command offloads p up to split in chunks driving-table chunks, body
// runs on every launched attempt, and a fallback re-executes orig.
func (x *Executor) runDevice(orig, p *exec.Plan, split, chunks int, s Strategy, b *device.Bindings,
	deadline vclock.Duration, body func(*deviceRun) (*Report, error)) (*Report, error) {

	snap, err := device.Snapshot(x.DB, p, split)
	if err != nil {
		return nil, err
	}
	r := &deviceRun{s: s, b: *b, cmd: &device.Command{Plan: p, SplitAfter: split, Snapshot: snap, Chunks: chunks},
		mp: device.PlanMemory(x.Model, p, split), inj: x.injectorFor(p, s), hostTL: vclock.NewTimeline("host")}

	root := b.Trace.Start(r.hostTL, "query:"+p.Query.Name).Attr("strategy", s.String())
	defer root.End()

	return x.withRecovery(orig, r, deadline, body)
}

// attempt starts one device attempt of r's command — a fresh device carrying
// the run's bindings, its root span on the device track, and the NDP
// invocation — runs body on it, and closes the report's books.
func (x *Executor) attempt(r *deviceRun, body func(*deviceRun) (*Report, error)) (*Report, error) {
	r.dev = r.b.Device(r.inj)
	r.root = r.b.Trace.Start(r.dev.TL, "device:"+r.cmd.Plan.Query.Name).Attr("strategy", r.s.String())
	// Ending the device root span on every exit keeps the per-timeline span
	// stack intact for a retry replaying this command on the trace.
	defer r.root.End()
	var err error
	if r.eng, err = r.dev.Launch(r.cmd, r.mp, r.hostTL); err != nil {
		return nil, err // a rejected command is not retried
	}
	x.applyCacheFormat(r.eng)
	rep, err := body(r)
	if err != nil {
		return nil, err
	}
	rep.Query = r.cmd.Plan.Query.Name
	rep.Strategy = r.s
	rep.Elapsed = vclock.Duration(r.hostTL.Now())
	rep.DeviceElapsed = vclock.Duration(r.dev.TL.Now())
	rep.HostAccount = r.hostTL.Account()
	rep.DeviceAccount = r.dev.TL.Account()
	return rep, nil
}

// runNDPOnly offloads the complete plan including grouping/aggregation; the
// host only issues the command and fetches the final result.
func (x *Executor) runNDPOnly(p *exec.Plan, s Strategy, b *device.Bindings, deadline vclock.Duration) (*Report, error) {
	// Split after every join: all tables are device-read.
	return x.runDevice(p, p, len(p.Steps), 1, s, b, deadline, func(r *deviceRun) (*Report, error) {
		res, err := r.dev.RunPlan(r.eng, p)
		if err != nil {
			return nil, err
		}
		// Host waits for device completion, then transfers the final result.
		sp := r.b.Trace.Start(r.hostTL, "host.wait.device")
		r.hostTL.WaitUntil(r.dev.TL.Now(), hw.CatWaitInitial)
		sp.End()
		sp = r.b.Trace.Start(r.hostTL, "transfer.result").AttrInt("bytes", res.Bytes)
		hw.HostRates(x.Model).Transfer(r.hostTL, res.Bytes, x.Model.SharedBufferSlot)
		sp.End()
		return &Report{Result: res, TransferredBytes: res.Bytes}, nil
	})
}

// runHybrid is the cooperative execution path: the interleaved single-device
// driver, where the host consumes result sets while the device produces the
// next ones and shared-slot back-pressure couples the two timelines.
func (x *Executor) runHybrid(orig *exec.Plan, s Strategy, b *device.Bindings, deadline vclock.Duration) (*Report, error) {
	p, split := orig, s.Split
	if split < 0 || split > len(p.Steps) {
		return nil, fmt.Errorf("coop: no split point H%d in a plan of %d joins", split, len(p.Steps))
	}
	// Join-free (single-table) plans execute as H0: the device scans and
	// filters the base table, ships survivor chunks through the shared
	// buffer, and the host finalizes (projection / aggregation). Interior
	// splits are rejected above since len(p.Steps) == 0. A prepared plan
	// carries its H0 variant, prepared once with it.
	if split == 0 {
		p = orig.WithBufferedJoins()
	}
	// The fallback re-executes the ORIGINAL plan (with its BNLI index joins
	// intact): the H0 rewrite only makes sense with device-seeded inners.
	return x.runDevice(orig, p, split, device.DrivingChunks(x.Model, x.Cat, p), s, b, deadline, x.hybridAttempt)
}

// hybridAttempt runs one launched cooperative attempt to completion: the host
// pre-build overlapping the device's initial execution, the interleaved
// hand-off — the producer emitting straight into the receiver, its
// back-pressure reading the host's fetch completions — and the host-side
// finalize.
func (x *Executor) hybridAttempt(r *deviceRun) (*Report, error) {
	r.root.AttrInt("chunks", int64(r.cmd.Chunks))
	rc, err := r.b.Receiver(r.hostTL, r.cmd.Plan)
	if err != nil {
		return nil, err
	}
	from := 0 // first join step the host executes on driving batches
	if r.cmd.SplitAfter > 0 {
		// Hk: the host joins steps[split:] over host-scanned inners; build
		// their hash tables now, while the device is busy.
		from = r.cmd.SplitAfter
		if err := rc.Prebuild(from); err != nil {
			return nil, err
		}
	}
	rep := &Report{}
	receive := func(b device.Batch) error {
		fetched, err := rc.Receive(b, r.inj, from)
		if err != nil {
			return err
		}
		rows := b.Rows()
		if m := x.Metrics; m != nil {
			m.Histogram("coop.batch.rows", obs.DefaultSizeBuckets).Observe(float64(rows))
			m.Histogram("coop.batch.bytes", obs.DefaultSizeBuckets).Observe(float64(b.Bytes))
		}
		rep.Timeline = append(rep.Timeline, BatchEvent{Idx: len(rep.Timeline), Rows: rows,
			DeviceReady: b.Ready, HostFetched: fetched, HostDone: r.hostTL.Now()})
		return nil
	}
	// Batch j's shared-buffer slot is free again once the host fetched it.
	slotFreed := func(j int) (vclock.Time, bool) {
		if j < len(rep.Timeline) {
			return rep.Timeline[j].HostFetched, true
		}
		return 0, false
	}
	if err := r.dev.Produce(r.cmd, rc.Pl, r.eng, nil, slotFreed, receive); err != nil {
		return nil, err
	}

	res, err := rc.Finalize()
	if err != nil {
		return nil, err
	}
	x.recordStorage(rc.Eng)
	rep.Result = res
	rep.Batches = rc.Batches
	rep.TransferredBytes = rc.Bytes
	return rep, nil
}
