// Package sched is the concurrent query scheduler of the repro: it admits
// many in-flight queries over a (simulated) smart-storage fleet, arbitrating
// the device's scarce resources — NDP command slots, the DRAM reservation
// budget, shared result-buffer slots — through a ledger with admission
// control. Per query the optimizer's dynamic-offloading decision (paper §3)
// is the starting point, but the scheduler re-costs the split under the
// current load: device backlog inflates the device part of every hybrid
// estimate, host backlog inflates the host part, and a saturated fleet
// degrades queries to cheaper splits or host-native execution instead of
// queueing them forever. This extends the paper's "which split Hk" decision
// to "which split Hk given current device load" — the arbitration problem
// production NDP deployments face (cf. Taurus, PAPERS.md).
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hybridndp/internal/clock"
	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// Priority classes order the admission queue. Within a class the queue is
// FIFO; across classes higher priorities dispatch first, with aging so Batch
// work is never starved (every fourth dispatch takes the oldest ticket
// regardless of class).
type Priority int

// Priority classes, highest first.
const (
	High Priority = iota
	Normal
	Batch
	numPriorities = 3
)

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Normal:
		return "normal"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// Config sizes the scheduler.
type Config struct {
	// Workers bounds the number of concurrently executing queries.
	Workers int
	// QueueDepth bounds the admission queue across all priority classes;
	// Submit blocks (backpressure) while the queue is full.
	QueueDepth int
	// Devices is the smart-storage fleet size; each device contributes its
	// own command slots, NDP memory budget and shared buffer slots.
	Devices int
	// DeviceCmdSlots is the number of concurrent NDP commands per device.
	// The paper's COSMOS+ board dedicates one core to execution, so the
	// default is 1.
	DeviceCmdSlots int
	// QueryTimeout bounds the wall time a ticket may spend in the admission
	// queue before it is rejected (0 = unbounded).
	QueryTimeout time.Duration
	// BreakerThreshold is the consecutive device-command failure count that
	// trips a device's circuit breaker open (admission then routes around the
	// device). 0 selects the default of 3; negative disables breaking.
	BreakerThreshold int
	// BreakerProbeAfter is the number of skipped admissions after which an
	// open breaker goes half-open and admits a single probe command.
	// 0 selects the default of 8.
	BreakerProbeAfter int
	// Policy selects adaptive serving or one of the forced baselines.
	Policy Policy
	// Fleet, when set, routes every decided query through sharded
	// scatter-gather execution over the fleet executor instead of the
	// single-device cooperative path. New wires the executor's admission
	// gate to this scheduler's ledger, so shard admission shares the same
	// command slots, memory budgets and circuit breakers; a shard denied
	// admission (or behind an open breaker) degrades to host execution
	// inside the run. Policy is ignored while Fleet is set.
	Fleet *fleet.Executor
	// Clock is the wall-time source for ticket timestamps (queue-wait
	// measurement, priority aging, admission timeouts). Nil means the system
	// clock; tests inject clock.NewFake() to make aging deterministic.
	Clock clock.Clock
	// Metrics receives the scheduler's counters, the live ledger gauges
	// (per-device slot/memory occupancy, queue depths) and the calibration
	// true-up histograms. Nil disables metric recording.
	Metrics *obs.Registry
	// Traces, when set, records one obs.Trace per processed query (named
	// after the query), fed through the executor's traced run path.
	Traces *obs.TraceSet
}

// DefaultConfig returns a serving configuration suitable for the Cosmos
// model: a worker pool of 8, a bounded queue of 64, one device.
func DefaultConfig() Config {
	return Config{Workers: 8, QueueDepth: 64, Devices: 1, DeviceCmdSlots: 1, Policy: Adaptive}
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1
	}
	if c.Devices < 1 {
		c.Devices = 1
	}
	if c.DeviceCmdSlots < 1 {
		c.DeviceCmdSlots = 1
	}
	if c.Clock == nil {
		c.Clock = clock.System()
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerProbeAfter < 1 {
		c.BreakerProbeAfter = 8
	}
	return c
}

// Scheduler errors. Admission can fail for exactly three reasons, each with
// its own sentinel so callers can tell backpressure from shutdown from
// expiry (errors.Is works through any wrapping):
//
//   - ErrClosed: the scheduler stopped intake (returned by Submit/TrySubmit).
//   - ErrQueueFull: the bounded admission queue is at QueueDepth (returned by
//     TrySubmit only; Submit blocks instead — that is the backpressure path).
//   - ErrExpired: the ticket was admitted but timed out or was cancelled
//     while queued; it surfaces on the ticket's Outcome.Err, never from
//     Submit/TrySubmit themselves.
//
// Per-tenant quota rejections are deliberately NOT a scheduler concern: the
// serving layer (internal/serve) enforces token-bucket quotas before work
// reaches this queue and reports them as serve.ErrQuotaExceeded, so a
// caller seeing ErrQueueFull knows the shared queue — not their quota — was
// the limit.
var (
	ErrClosed    = errors.New("sched: scheduler closed")
	ErrQueueFull = errors.New("sched: admission queue full")
	ErrExpired   = errors.New("sched: ticket expired in queue")
)

// Deadline bounds one request end to end. The two clocks a request spans get
// one bound each: Wall limits the wall-clock time the ticket may spend in the
// admission queue (like Config.QueryTimeout, but per request — whichever is
// tighter wins), and Exec is the virtual-time budget forwarded into the
// executor, where it stops retries that cannot finish in time (coop) and
// degrades too-slow shards to host execution at their merge position (fleet).
// The zero Deadline imposes no bound on either clock.
type Deadline struct {
	Wall time.Duration
	Exec vclock.Duration
}

// Ticket is one submitted query's handle: it resolves to an Outcome once the
// query ran (or was rejected).
type Ticket struct {
	query     *query.Query
	priority  Priority
	ctx       context.Context
	submitted time.Time
	deadline  Deadline

	done    chan struct{}
	outcome Outcome
}

// Wait blocks until the outcome is available or ctx is done.
func (t *Ticket) Wait(ctx context.Context) (*Outcome, error) {
	// Both arms converge on state recorded elsewhere: the outcome is written
	// before done is closed, and a context cancellation returns without
	// touching any shared state, so the race is benign for determinism.
	//lint:allow detsched both outcomes converge; no sim state depends on which arm wins
	select {
	case <-t.done:
		return &t.outcome, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Done returns a channel closed when the outcome is available.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Outcome returns the outcome after Done is closed (nil before).
func (t *Ticket) Outcome() *Outcome {
	select {
	case <-t.done:
		return &t.outcome
	default:
		return nil
	}
}

// Scheduler is a running serving instance over one system.
type Scheduler struct {
	opt    *optimizer.Optimizer
	exec   *coop.Executor
	model  hw.Model
	cfg    Config
	ledger *Ledger
	stats  *collector
	calib  calibration
	hist   history

	mu       sync.Mutex
	notEmpty *sync.Cond               // set once in New
	notFull  *sync.Cond               // set once in New
	queues   [numPriorities][]*Ticket // guarded by mu
	queued   int                      // guarded by mu
	popCount uint64                   // guarded by mu
	closed   bool                     // guarded by mu

	wg sync.WaitGroup
}

// New starts a scheduler with cfg.Workers worker goroutines over the given
// planner and executor. Call Close to drain and stop it.
func New(opt *optimizer.Optimizer, exec *coop.Executor, m hw.Model, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	hostLanes := cfg.Workers
	if m.HostCores > 0 && hostLanes > m.HostCores {
		hostLanes = m.HostCores
	}
	devLanes := cfg.Devices * cfg.DeviceCmdSlots
	s := &Scheduler{
		opt:    opt,
		exec:   exec,
		model:  m,
		cfg:    cfg,
		ledger: NewLedger(m, cfg.Devices, cfg.DeviceCmdSlots, hostLanes),
		stats:  newCollector(hostLanes, devLanes),
		hist:   history{m: map[string]*qhist{}},
	}
	s.ledger.ConfigureBreaker(cfg.BreakerThreshold, cfg.BreakerProbeAfter)
	s.ledger.bindMetrics(cfg.Metrics)
	if cfg.Fleet != nil {
		cfg.Fleet.Gate = &fleetGate{l: s.ledger, m: cfg.Metrics}
		if cfg.Fleet.Metrics == nil {
			cfg.Fleet.Metrics = cfg.Metrics
		}
		if cfg.Fleet.Hedge.Enabled && cfg.Fleet.Hedge.Scale == nil {
			// Hedge thresholds scale with the calibration loop's EWMA of
			// actual/estimate device time, so a fleet whose devices run slower
			// than the model predicts does not hedge every shard.
			cfg.Fleet.Hedge.Scale = s.calib.deviceFactor
		}
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues a query, blocking while the admission queue is full
// (backpressure) until space frees up, ctx is done, or the scheduler closes.
func (s *Scheduler) Submit(ctx context.Context, q *query.Query, prio Priority) (*Ticket, error) {
	return s.SubmitDeadline(ctx, q, prio, Deadline{})
}

// SubmitDeadline enqueues like Submit with a per-request deadline attached:
// the ticket expires in queue (ErrExpired on its Outcome) once its wall wait
// exceeds dl.Wall, and dl.Exec rides along into the executor as the virtual
// execution budget. The zero Deadline makes this identical to Submit.
func (s *Scheduler) SubmitDeadline(ctx context.Context, q *query.Query, prio Priority, dl Deadline) (*Ticket, error) {
	if prio < High || prio > Batch {
		prio = Normal
	}
	t := &Ticket{query: q, priority: prio, ctx: ctx, submitted: s.cfg.Clock.Now(), deadline: dl, done: make(chan struct{})}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.notFull.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	for s.queued >= s.cfg.QueueDepth && !s.closed && ctx.Err() == nil {
		s.notFull.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.enqueueLocked(t)
	s.mu.Unlock()
	s.stats.submitted()
	s.cfg.Metrics.Counter("sched.submitted").Inc()
	return t, nil
}

// TrySubmit enqueues without blocking; ErrQueueFull signals backpressure.
func (s *Scheduler) TrySubmit(q *query.Query, prio Priority) (*Ticket, error) {
	if prio < High || prio > Batch {
		prio = Normal
	}
	t := &Ticket{query: q, priority: prio, ctx: context.Background(), submitted: s.cfg.Clock.Now(), done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.stats.rejected()
		s.cfg.Metrics.Counter("sched.rejected.full").Inc()
		return nil, ErrQueueFull
	}
	s.enqueueLocked(t)
	s.mu.Unlock()
	s.stats.submitted()
	s.cfg.Metrics.Counter("sched.submitted").Inc()
	return t, nil
}

func (s *Scheduler) enqueueLocked(t *Ticket) {
	s.queues[t.priority] = append(s.queues[t.priority], t)
	s.queued++
	s.publishQueueLocked(t.priority)
	s.notEmpty.Signal()
}

// publishQueueLocked mirrors one class's queue depth (and the total) into
// gauges. Caller holds s.mu; all calls are no-ops without a registry.
func (s *Scheduler) publishQueueLocked(p Priority) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	m.Gauge("sched.queue.depth." + p.String()).SetInt(int64(len(s.queues[p])))
	m.Gauge("sched.queue.depth").SetInt(int64(s.queued))
}

// wallLimit is the ticket's effective wall-clock queue bound: the tighter of
// the scheduler-wide QueryTimeout and the ticket's own deadline (0 = none).
func (s *Scheduler) wallLimit(t *Ticket) time.Duration {
	limit := s.cfg.QueryTimeout
	if d := t.deadline.Wall; d > 0 && (limit == 0 || d < limit) {
		limit = d
	}
	return limit
}

// expireLocked sweeps deadline-dead tickets out of every class queue: a
// ticket whose wall wait already exceeds its limit (or whose context is done)
// is finished with ErrExpired right away instead of occupying a bounded-queue
// slot until a worker happens to pop it. Caller holds s.mu; the sweep runs on
// the same every-fourth-dispatch cadence as priority aging, so its cost is
// amortized and the queue-order fast path stays untouched.
func (s *Scheduler) expireLocked() {
	now := s.cfg.Clock.Now()
	freed := false
	for p := range s.queues {
		kept := s.queues[p][:0]
		for _, t := range s.queues[p] {
			wait := now.Sub(t.submitted)
			limit := s.wallLimit(t)
			var ctxErr error
			if t.ctx != nil {
				ctxErr = t.ctx.Err()
			}
			if ctxErr == nil && (limit <= 0 || wait <= limit) {
				kept = append(kept, t)
				continue
			}
			s.stats.rejected()
			s.cfg.Metrics.Counter("sched.rejected.expired").Inc()
			s.cfg.Metrics.Counter("sched.queue.aged_expiry").Inc()
			err := ctxErr
			if err != nil {
				err = fmt.Errorf("%w: %v", ErrExpired, err)
			} else {
				err = fmt.Errorf("%w: queue wait %v exceeded limit %v", ErrExpired, wait, limit)
			}
			t.finish(Outcome{Query: t.query.Name, Priority: t.priority, QueueWait: wait, Device: -1, Err: err})
			s.queued--
			freed = true
		}
		if len(kept) != len(s.queues[p]) {
			// Zero the freed tail so expired tickets do not linger reachable.
			for i := len(kept); i < len(s.queues[p]); i++ {
				s.queues[p][i] = nil
			}
			s.queues[p] = kept
			s.publishQueueLocked(Priority(p))
		}
	}
	if freed {
		s.notFull.Broadcast()
	}
}

// popLocked removes the next ticket: priority order normally, and every
// fourth dispatch the oldest ticket across all classes (aging), so a steady
// stream of high-priority work cannot starve the batch class. The aging
// dispatch doubles as the expiry sweep: before picking the oldest ticket,
// tickets already past their wall deadline are rejected in place.
func (s *Scheduler) popLocked() *Ticket {
	s.popCount++
	pick := -1
	if s.popCount%4 == 0 {
		s.expireLocked()
		var oldest time.Time
		for p := range s.queues {
			if len(s.queues[p]) == 0 {
				continue
			}
			if head := s.queues[p][0]; pick < 0 || head.submitted.Before(oldest) {
				pick, oldest = p, head.submitted
			}
		}
	} else {
		for p := range s.queues {
			if len(s.queues[p]) > 0 {
				pick = p
				break
			}
		}
	}
	if pick < 0 {
		return nil
	}
	t := s.queues[pick][0]
	if s.popCount%4 == 0 {
		s.cfg.Metrics.Counter("sched.queue.aged_dispatch").Inc()
	}
	s.queues[pick] = s.queues[pick][1:]
	s.queued--
	s.publishQueueLocked(Priority(pick))
	return t
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			s.notEmpty.Wait()
		}
		if s.queued == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		t := s.popLocked()
		s.notFull.Signal()
		s.mu.Unlock()
		if t == nil {
			// The expiry sweep drained the queue before the pick.
			continue
		}
		s.process(t)
	}
}

// Close stops intake and drains: queued tickets still execute, then the
// workers exit. Blocked Submit calls return ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats snapshots the serving counters.
func (s *Scheduler) Stats() Stats { return s.stats.snapshot() }

// Load snapshots the resource ledger.
func (s *Scheduler) Load() Load { return s.ledger.Snapshot() }

// finish resolves a ticket.
func (t *Ticket) finish(o Outcome) {
	t.outcome = o
	close(t.done)
}

// process runs one ticket through decide → degrade → execute → record.
func (s *Scheduler) process(t *Ticket) {
	m := s.cfg.Metrics
	wait := s.cfg.Clock.Since(t.submitted)
	base := Outcome{Query: t.query.Name, Priority: t.priority, QueueWait: wait, Device: -1}
	m.Histogram("sched.queue.wait.ns", obs.DefaultDurationBuckets).Observe(float64(wait.Nanoseconds()))

	// Admission timeout / cancelled context: reject instead of executing
	// work nobody is waiting for.
	if err := t.ctx.Err(); err != nil {
		s.stats.rejected()
		m.Counter("sched.rejected.expired").Inc()
		base.Err = fmt.Errorf("%w: %v", ErrExpired, err)
		t.finish(base)
		return
	}
	if limit := s.wallLimit(t); limit > 0 && wait > limit {
		s.stats.rejected()
		m.Counter("sched.rejected.expired").Inc()
		if t.deadline.Wall > 0 && (s.cfg.QueryTimeout == 0 || t.deadline.Wall < s.cfg.QueryTimeout) {
			m.Counter("sched.rejected.deadline").Inc()
		}
		base.Err = fmt.Errorf("%w: queue wait %v exceeded timeout %v", ErrExpired, wait, limit)
		t.finish(base)
		return
	}

	d, err := s.opt.Decide(t.query)
	if err != nil {
		base.Err = err
		s.recordOutcome(&base, 0, 0)
		t.finish(base)
		return
	}
	unloaded := coop.DecisionStrategy(d)
	base.Unloaded = unloaded.String()

	if s.cfg.Fleet != nil {
		s.processFleet(t, &base, d)
		return
	}

	cand, dev, err := s.place(t.ctx, d)
	if err != nil {
		base.Err = err
		s.recordOutcome(&base, 0, 0)
		t.finish(base)
		return
	}
	base.Chosen = cand.strat.String()
	base.Degraded = cand.strat != unloaded
	base.Device = dev
	if dev >= 0 {
		m.Counter("sched.admit.device").Inc()
	} else {
		m.Counter("sched.admit.host").Inc()
	}
	if base.Degraded {
		m.Counter("sched.admit.degraded").Inc()
	}

	tr := s.cfg.Traces.New(t.query.Name)
	s.ledger.AddHost(cand.hostNs)
	rep, err := s.exec.RunDeadline(d.Plan, cand.strat, tr, t.deadline.Exec)
	if dev >= 0 {
		// Feed the breaker: a command only counts as a device success when it
		// actually completed on the device — an executor-level host fallback
		// means the device failed every retry.
		s.ledger.ReportDeviceResult(dev, err == nil && rep != nil && !rep.FellBack)
		if rep != nil {
			// True up the estimate with the measured device busy time, so
			// estimation error cannot keep overloading the device pool, and
			// feed the actual/estimate ratio into the calibration loop.
			actual := float64(deviceBusy(rep))
			s.ledger.AdjustDevice(dev, actual-cand.claim.EstDeviceNs)
			s.calib.observeDevice(actual, cand.rawDevNs)
			if cand.rawDevNs > 0 {
				m.Histogram("sched.trueup.device.ratio", obs.DefaultRatioBuckets).
					Observe(actual / cand.rawDevNs)
			}
			m.Gauge("sched.calib.device.factor").Set(s.calib.deviceFactor())
		}
		s.ledger.Release(dev, cand.claim)
	}
	if err != nil && cand.strat.Kind != coop.HostNative {
		// Device-side execution failure: the paper's preconditions mandate
		// falling back to the traditional host-only path.
		base.Chosen = coop.Strategy{Kind: coop.HostNative}.String()
		base.Degraded = true
		m.Counter("sched.fallback.host").Inc()
		rep, err = s.exec.RunTraced(d.Plan, coop.Strategy{Kind: coop.HostNative}, tr)
	}
	if err != nil {
		base.Err = err
		s.recordOutcome(&base, 0, 0)
		t.finish(base)
		return
	}
	s.ledger.AdjustHost(float64(hostBusy(rep)) - cand.hostNs)
	if cand.rawHostNs > 0 {
		m.Histogram("sched.trueup.host.ratio", obs.DefaultRatioBuckets).
			Observe(float64(hostBusy(rep)) / cand.rawHostNs)
	}
	// Remember this query's per-pool actual/estimate ratios for repeats.
	s.hist.observe(queryKey(d.Plan),
		float64(deviceBusy(rep)), cand.rawDevNs,
		float64(hostBusy(rep)), cand.rawHostNs)
	base.Elapsed = rep.Elapsed
	base.Report = rep
	s.recordOutcome(&base, hostBusy(rep), deviceBusy(rep))
	t.finish(base)
}

// recordOutcome books a terminal outcome into the stats collector and the
// metrics registry (completion/error counters per strategy and priority).
func (s *Scheduler) recordOutcome(o *Outcome, hostBusy, devBusy vclock.Duration) {
	s.stats.record(o, hostBusy, devBusy)
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	if o.Err != nil {
		m.Counter("sched.errors").Inc()
		return
	}
	m.Counter("sched.completed").Inc()
	m.Counter("sched.completed." + o.Priority.String()).Inc()
	m.Counter("sched.strategy." + o.Chosen).Inc()
	m.Histogram("sched.elapsed.ns", obs.DefaultDurationBuckets).Observe(float64(o.Elapsed))
}

// place chooses the strategy under the configured policy and acquires the
// device claim. The returned device index is -1 for host-native execution.
func (s *Scheduler) place(ctx context.Context, d *optimizer.Decision) (candidate, int, error) {
	switch s.cfg.Policy {
	case ForceHost:
		return candidate{strat: coop.Strategy{Kind: coop.HostNative}, hostNs: d.Costs.HostTotal, rawHostNs: d.Costs.HostTotal}, -1, nil
	case ForceNDP:
		cands := s.candidates(d)
		// The last NDP-kind candidate is full NDP; fall back to host when
		// the plan never fits the device.
		var ndp *candidate
		for i := range cands {
			if cands[i].strat.Kind == coop.NDPOnly {
				ndp = &cands[i]
			}
		}
		if ndp == nil {
			return candidate{strat: coop.Strategy{Kind: coop.HostNative}, hostNs: d.Costs.HostTotal, rawHostNs: d.Costs.HostTotal}, -1, nil
		}
		dev, err := s.ledger.Acquire(ctx, ndp.claim)
		if err != nil {
			if errors.Is(err, device.ErrDeviceBusy) {
				// Every breaker is open: even forced NDP must route host-side
				// rather than error out or deadlock.
				s.cfg.Metrics.Counter("sched.breaker.routed.host").Inc()
				return candidate{strat: coop.Strategy{Kind: coop.HostNative}, hostNs: d.Costs.HostTotal, rawHostNs: d.Costs.HostTotal}, -1, nil
			}
			return candidate{}, -1, fmt.Errorf("sched: forced-NDP admission: %w", err)
		}
		return *ndp, dev, nil
	}
	// Adaptive: rank all alternatives under the current load, then walk the
	// ranking; device-bound choices must clear admission control. When a
	// device candidate is blocked on admission, the loaded estimate is
	// re-costed with the device's capacity discounted — the in-flight work
	// it would queue behind. If it still beats the host alternative, the
	// query holds out for a slot and re-ranks on the next release; otherwise
	// it degrades to the next-cheapest alternative. The host-native
	// candidate needs no claim, so placement always terminates.
	for {
		ld := s.ledger.Snapshot()
		cands := rank(s.candidates(d), ld)
		hostLoaded := math.Inf(1)
		for i := range cands {
			if !cands[i].onDevice() {
				hostLoaded = cands[i].loaded
				break
			}
		}
		if ld.DevicesHealthy == 0 {
			// Every device breaker is open: holding out for a slot would wait
			// on a fleet that admits nothing. Route straight to the host.
			s.cfg.Metrics.Counter("sched.breaker.routed.host").Inc()
			for i := range cands {
				if !cands[i].onDevice() {
					return cands[i], -1, nil
				}
			}
			return candidate{strat: coop.Strategy{Kind: coop.HostNative}, hostNs: d.Costs.HostTotal, rawHostNs: d.Costs.HostTotal}, -1, nil
		}
		wait := false
		for i := range cands {
			c := cands[i]
			if !c.onDevice() {
				return c, -1, nil
			}
			if c.risky {
				// No per-query evidence yet: the first execution stays on the
				// host, where a misestimate costs one lane, not the device.
				continue
			}
			if dev, ok := s.ledger.TryAcquire(c.claim); ok {
				return c, dev, nil
			}
			if c.loaded+ld.DeviceInFlightNs < hostLoaded {
				wait = true
				break
			}
			// Saturated and not worth waiting for: degrade to the next
			// candidate in the ranking.
		}
		if !wait {
			// Unreachable: candidates always contains host-native.
			return candidate{strat: coop.Strategy{Kind: coop.HostNative}, hostNs: d.Costs.HostTotal, rawHostNs: d.Costs.HostTotal}, -1, nil
		}
		s.cfg.Metrics.Counter("sched.admit.heldout").Inc()
		if err := s.ledger.AwaitChange(ctx); err != nil {
			// The query's context expired while holding out for a device
			// slot: run it on the host rather than rejecting admitted work.
			return candidate{strat: coop.Strategy{Kind: coop.HostNative}, hostNs: d.Costs.HostTotal, rawHostNs: d.Costs.HostTotal}, -1, nil
		}
	}
}

// hostBusy extracts the host's busy (non-stall) virtual time from a report.
// Fault-recovery waits (host waiting out a crashed device attempt, retry
// backoff) are stalls, not load.
func hostBusy(r *coop.Report) vclock.Duration {
	busy := r.Elapsed - r.HostAccount[hw.CatWaitInitial] - r.HostAccount[hw.CatWaitFetch] -
		r.HostAccount[hw.CatFaultWait] - r.HostAccount[hw.CatBackoff]
	if busy < 0 {
		busy = 0
	}
	return busy
}

// deviceBusy extracts the device's busy virtual time (setup rendezvous and
// slot stalls excluded).
func deviceBusy(r *coop.Report) vclock.Duration {
	var busy vclock.Duration
	for cat, d := range r.DeviceAccount {
		if cat == hw.CatWaitSlots || cat == hw.CatNDPSetup {
			continue
		}
		busy += d
	}
	return busy
}
