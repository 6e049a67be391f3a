// Package sched is the query scheduler of the repro, and the only one: a
// single-threaded discrete-event loop on virtual time (Loop) that admits
// queued work over a (simulated) smart-storage fleet. Per query the
// optimizer's dynamic-offloading decision (paper §3) is the starting point,
// but placement re-checks it against the current load: one ledger holds the
// instant every host lane and every device command slot falls free (with the
// device DRAM / buffer claims and circuit breakers on the device rows), and
// one rule, Place, takes the alternative that completes earliest and breaks
// ties toward the host. This extends the paper's "which split Hk" decision to
// "which split Hk given current device load" — the arbitration problem
// production NDP deployments face (cf. Taurus, PAPERS.md).
//
// The loop has two fronts and two runners. internal/serve feeds it open-loop
// multi-tenant traffic and replays measured service times; Scheduler, below,
// is the same loop behind one admission queue with the live runner, which
// prices every feasible strategy with the cost model and the Feedback store
// and executes the chosen one for real at dispatch. Nothing here reads a wall
// clock or starts a goroutine: the caller progresses the loop, so every
// output is a function of the submission sequence alone.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hybridndp/internal/coop"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// Config sizes the scheduler.
type Config struct {
	// Workers bounds the queries executing on the host at once: the host-lane
	// pool is Workers lanes, capped at the model's host cores.
	Workers int
	// QueueDepth bounds the admission queue across all priority classes; a
	// Submit on a full queue progresses the loop until a slot frees up.
	QueueDepth int
	// Devices is the smart-storage fleet size; each device contributes one
	// command slot, its NDP memory budget and its shared buffer slots.
	Devices int
	// QueryTimeout bounds the virtual time a ticket may spend in the
	// admission queue before it is rejected (0 = unbounded).
	QueryTimeout vclock.Duration
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
	// command slots, memory budgets and circuit breakers; a shard whose
	// device is busy at the run's start instant (or behind an open breaker)
	// degrades to host execution inside the run. Policy is ignored while
	// Fleet is set.
	Fleet *fleet.Executor
	// Metrics receives the scheduler's counters, the ledger gauges
	// (per-device slot/memory occupancy, queue depths) and the estimate
	// true-up histograms. Nil disables metric recording.
	Metrics *obs.Registry
	// Traces, when set, records one obs.Trace per processed query (named
	// after the query), fed through the executor's traced run path.
	Traces *obs.TraceSet
}

// DefaultConfig returns a serving configuration suitable for the Cosmos
// model: 8 workers, a bounded queue of 64, one device.
func DefaultConfig() Config {
	return Config{Workers: 8, QueueDepth: 64, Devices: 1, Policy: Adaptive}
}

func (c Config) withDefaults() Config {
	c.Workers = max(c.Workers, 1)
	c.QueueDepth = max(c.QueueDepth, 1)
	c.Devices = max(c.Devices, 1)
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
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
//     TrySubmit only; Submit progresses the loop instead — that is the
//     backpressure path).
//   - ErrExpired: the ticket was admitted but its virtual queue wait passed
//     its limit, or its context was cancelled, before it could be
//     dispatched; it surfaces on the ticket's Outcome.Err, never from
//     Submit/TrySubmit themselves.
//
// Per-tenant quota rejections are deliberately NOT a scheduler concern: the
// serving layer (internal/serve) enforces token-bucket quotas before work
// reaches the loop and reports them as serve.ErrQuotaExceeded, so a caller
// seeing ErrQueueFull knows the shared queue — not their quota — was the
// limit.
var (
	ErrClosed    = errors.New("sched: scheduler closed")
	ErrQueueFull = errors.New("sched: admission queue full")
	ErrExpired   = errors.New("sched: ticket expired in queue")
)

// Deadline bounds one request on the virtual clock: Queue limits the time the
// ticket may wait in the admission queue (like Config.QueryTimeout, but per
// request — whichever is tighter wins), and Exec is the execution budget
// forwarded into the executor, where it stops retries that cannot finish in
// time (coop) and degrades too-slow shards to host execution at their merge
// position (fleet). The zero Deadline imposes no bound.
type Deadline struct {
	Queue vclock.Duration
	Exec  vclock.Duration
}

// Ticket is one submitted query's handle: it resolves to an Outcome once the
// query ran (or was rejected).
type Ticket struct {
	s         *Scheduler
	query     *query.Query
	priority  Priority
	ctx       context.Context
	submitted vclock.Time
	deadline  Deadline
	decision  *optimizer.Decision

	resolved bool
	outcome  Outcome
	// Busy virtual time per pool, set by the live runner for the stats.
	hostBusy, devBusy vclock.Duration
}

// QueuedAt is the virtual instant the ticket was submitted.
func (t *Ticket) QueuedAt() vclock.Time { return t.submitted }

// Wait progresses the scheduler until the outcome is available or ctx is
// done.
func (t *Ticket) Wait(ctx context.Context) (*Outcome, error) {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for !t.resolved {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !s.loop.Step() {
			panic("sched: unresolved ticket is not queued")
		}
	}
	return &t.outcome, nil
}

// Outcome returns the outcome once the ticket resolved (nil before).
func (t *Ticket) Outcome() *Outcome {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if !t.resolved {
		return nil
	}
	return &t.outcome
}

// Scheduler is a serving instance over one system: the loop behind a single
// bounded admission queue, executing through the live runner. It runs on the
// goroutine of whoever calls it — Submit enqueues at the current virtual
// instant; Drain, Close and Ticket.Wait dispatch queued tickets and advance
// the clock. mu serializes those entry points, so they are safe to call from
// several goroutines; everything else, the Front methods included, runs under
// the entry point's lock.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	loop   *Loop[*Ticket]
	queue  *Queue[*Ticket]
	stats  Stats
	closed bool
}

// New assembles a scheduler over the given planner and executor. Call Close
// to drain it and stop intake.
func New(opt *optimizer.Optimizer, exec *coop.Executor, m hw.Model, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	hostLanes := cfg.Workers
	if m.HostCores > 0 {
		hostLanes = min(hostLanes, m.HostCores)
	}
	ledger := NewLedger(m, hostLanes, cfg.Devices)
	ledger.ConfigureBreaker(cfg.BreakerThreshold, cfg.BreakerProbeAfter)
	ledger.bindMetrics(cfg.Metrics)
	s := &Scheduler{
		cfg:   cfg,
		queue: NewQueue[*Ticket](cfg.QueueDepth),
		stats: Stats{
			ByStrategy:             map[string]int64{},
			QueueWaitMaxByPriority: map[string]vclock.Duration{},
			HostLanes:              hostLanes,
			DevLanes:               cfg.Devices * deviceCmdSlots,
		},
	}
	s.loop = NewLoop[*Ticket](ledger, cfg.Policy, newLive(opt, exec, m, ledger, cfg), s)
	return s
}

// Submit enqueues a query at the current virtual instant. A full admission
// queue is backpressure: Submit dispatches queued tickets until a slot frees
// up. It fails with ErrClosed after Close and with ctx's error if ctx is
// already done.
func (s *Scheduler) Submit(ctx context.Context, q *query.Query, prio Priority) (*Ticket, error) {
	return s.SubmitDeadline(ctx, q, prio, Deadline{})
}

// SubmitDeadline enqueues like Submit with a per-request deadline attached:
// the ticket expires in queue (ErrExpired on its Outcome) once its virtual
// wait exceeds dl.Queue, and dl.Exec rides along into the executor as the
// execution budget. The zero Deadline makes this identical to Submit.
func (s *Scheduler) SubmitDeadline(ctx context.Context, q *query.Query, prio Priority, dl Deadline) (*Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for s.queue.Len() >= s.cfg.QueueDepth {
		s.loop.Step()
	}
	return s.enqueue(ctx, q, prio, dl), nil
}

// TrySubmit enqueues without progressing the loop; ErrQueueFull signals
// backpressure.
func (s *Scheduler) TrySubmit(q *query.Query, prio Priority) (*Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.queue.Len() >= s.cfg.QueueDepth {
		s.stats.Rejected++
		s.cfg.Metrics.Counter("sched.rejected.full").Inc()
		return nil, ErrQueueFull
	}
	return s.enqueue(context.Background(), q, prio, Deadline{}), nil
}

func (s *Scheduler) enqueue(ctx context.Context, q *query.Query, prio Priority, dl Deadline) *Ticket {
	if prio < High || prio > Batch {
		prio = Normal
	}
	t := &Ticket{s: s, query: q, priority: prio, ctx: ctx, submitted: s.loop.Now(), deadline: dl}
	s.queue.Push(prio, t)
	s.publishQueue(prio)
	s.stats.Submitted++
	s.cfg.Metrics.Counter("sched.submitted").Inc()
	return t
}

// publishQueue mirrors one class's queue depth (and the total) into gauges.
func (s *Scheduler) publishQueue(p Priority) {
	if m := s.cfg.Metrics; m != nil {
		m.Gauge("sched.queue.depth." + p.String()).SetInt(int64(s.queue.ClassLen(p)))
		m.Gauge("sched.queue.depth").SetInt(int64(s.queue.Len()))
	}
}

// Drain dispatches every queued ticket; intake stays open.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loop.Drain()
}

// Close stops intake and drains: queued tickets still execute.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.loop.Drain()
}

// Stats snapshots the serving counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats.snapshot()
	st.Makespan = s.loop.Makespan()
	return st
}

// queueLimit is the ticket's effective queue-wait bound: the tighter of the
// scheduler-wide QueryTimeout and the ticket's own deadline (0 = none); own
// reports that the ticket's deadline is the binding one.
func (s *Scheduler) queueLimit(t *Ticket) (limit vclock.Duration, own bool) {
	limit = s.cfg.QueryTimeout
	if d := t.deadline.Queue; d > 0 && (limit == 0 || d < limit) {
		return d, true
	}
	return limit, false
}

// expired reports whether a ticket that has waited for wait is dead: past its
// queue limit, or abandoned by its submitter.
func (s *Scheduler) expired(t *Ticket, wait vclock.Duration) bool {
	limit, _ := s.queueLimit(t)
	return t.ctx.Err() != nil || (limit > 0 && wait > limit)
}

// expire is the one place a dead ticket is rejected and counted, whichever
// way the queue came across it: the aging dispatch's sweep (swept) or its own
// turn to dispatch.
func (s *Scheduler) expire(t *Ticket, wait vclock.Duration, swept bool) {
	m := s.cfg.Metrics
	s.stats.Rejected++
	m.Counter("sched.rejected.expired").Inc()
	if swept {
		m.Counter("sched.queue.aged_expiry").Inc()
	}
	err := t.ctx.Err()
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrExpired, err)
	} else {
		limit, own := s.queueLimit(t)
		if own {
			m.Counter("sched.rejected.deadline").Inc()
		}
		err = fmt.Errorf("%w: queue wait %v exceeded limit %v", ErrExpired, wait, limit)
	}
	t.outcome = Outcome{Query: t.query.Name, Priority: t.priority, QueueWait: wait, Device: -1, Err: err}
	t.resolved = true
}

// Pick pops the next ticket: priority order normally, and every fourth
// dispatch the oldest ticket across all classes (aging), so a steady stream
// of high-priority work cannot starve the batch class. The aging dispatch
// doubles as the expiry sweep: tickets already dead at the current instant
// are rejected in place, freeing their slots of the bounded queue, before the
// oldest survivor is taken.
func (s *Scheduler) Pick(now vclock.Time) (*Ticket, bool) {
	aged := s.queue.Aging()
	if aged {
		s.queue.Sweep(func(t *Ticket) bool {
			wait := now.Sub(t.submitted)
			if !s.expired(t, wait) {
				return false
			}
			s.expire(t, wait, true)
			return true
		})
	}
	t, ok := s.queue.Pop()
	for p := High; p <= Batch; p++ {
		s.publishQueue(p)
	}
	if !ok {
		return nil, false
	}
	if aged {
		s.cfg.Metrics.Counter("sched.queue.aged_dispatch").Inc()
	}
	t.outcome = Outcome{Query: t.query.Name, Priority: t.priority, QueueWait: now.Sub(t.submitted), Device: -1}
	return t, true
}

// Admit judges a placed ticket's queue wait — submission to its start
// instant — against its limit.
func (s *Scheduler) Admit(t *Ticket, c Candidate, ch Choice) bool {
	wait := ch.Start.Sub(t.submitted)
	s.cfg.Metrics.Histogram("sched.queue.wait.ns", obs.DefaultDurationBuckets).Observe(float64(wait))
	if s.expired(t, wait) {
		s.expire(t, wait, false)
		return false
	}
	unloaded := coop.DecisionStrategy(t.decision)
	o := &t.outcome
	o.QueueWait, o.Device = wait, ch.Dev
	o.Unloaded, o.Chosen, o.Degraded = unloaded.String(), c.Strategy.String(), c.Strategy != unloaded
	return true
}

// Done books a ticket's terminal outcome — the live runner has already
// written what ran onto the ticket — into the stats and the metrics registry
// (completion/error counters per strategy and priority) and resolves it.
func (s *Scheduler) Done(t *Ticket, _ Candidate, _ Choice, elapsed vclock.Duration, err error) {
	o := &t.outcome
	o.Elapsed, o.Err = elapsed, err
	s.stats.record(o, t.hostBusy, t.devBusy)
	t.resolved = true
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	if err != nil {
		m.Counter("sched.errors").Inc()
		return
	}
	m.Counter("sched.completed").Inc()
	m.Counter("sched.completed." + o.Priority.String()).Inc()
	m.Counter("sched.strategy." + o.Chosen).Inc()
	m.Histogram("sched.elapsed.ns", obs.DefaultDurationBuckets).Observe(float64(elapsed))
}
