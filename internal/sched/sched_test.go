package sched

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

var (
	dsOnce sync.Once
	dsInst *job.Dataset
	dsErr  error
)

// fixture loads one small shared JOB instance for all scheduler tests and
// assembles a fresh planner+executor pair over it.
func fixture(t *testing.T) (*optimizer.Optimizer, *coop.Executor, hw.Model) {
	t.Helper()
	dsOnce.Do(func() {
		dsInst, dsErr = job.Load(0.01, hw.Cosmos())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return optimizer.New(dsInst.Cat, dsInst.Model),
		coop.NewExecutor(dsInst.Cat, dsInst.DB, dsInst.Model),
		dsInst.Model
}

// onDevice reports whether the outcome's strategy ran on a device: every
// strategy but host-native does.
func onDevice(o *Outcome) bool { return o.Chosen != hostNative.String() }

// ndpFeasibleQuery finds a JOB query whose full plan fits the device memory
// budget (so forced-NDP admission actually contends for the command slot).
func ndpFeasibleQuery(t *testing.T, opt *optimizer.Optimizer, m hw.Model) *query.Query {
	t.Helper()
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			continue
		}
		if device.PlanMemory(m, p, len(p.Steps)).Fits() {
			return q
		}
	}
	t.Skip("no fully NDP-feasible query at this scale")
	return nil
}

// deviceBoundQuery finds a JOB query whose unloaded decision uses the device.
func deviceBoundQuery(t *testing.T, opt *optimizer.Optimizer) *query.Query {
	t.Helper()
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			continue
		}
		if coop.DecisionStrategy(d).Kind != coop.HostNative {
			return q
		}
	}
	t.Skip("no device-bound decision at this scale")
	return nil
}

func TestSchedulerDrainCompletesAll(t *testing.T) {
	opt, exec, m := fixture(t)
	s := New(opt, exec, m, DefaultConfig())
	queries := job.Queries()
	tickets := make([]*Ticket, 0, len(queries))
	for i, q := range queries {
		tk, err := s.Submit(context.Background(), q, Priority(i%numPriorities))
		if err != nil {
			t.Fatalf("submit %s: %v", q.Name, err)
		}
		tickets = append(tickets, tk)
	}
	s.Close()
	for i, tk := range tickets {
		o := tk.Outcome()
		if o == nil {
			t.Fatalf("ticket unresolved after drain")
		}
		if o.Err != nil {
			t.Fatalf("%s: %v", queries[i].Name, o.Err)
		}
		if o.Chosen == "" {
			t.Fatalf("%s: outcome lacks its strategy: %+v", queries[i].Name, o)
		}
	}
	st := s.Stats()
	if st.Submitted != int64(len(queries)) || st.Completed != st.Submitted || st.Errors != 0 {
		t.Fatalf("inconsistent stats after drain: %+v", st)
	}
	if st.Throughput() <= 0 {
		t.Fatalf("non-positive virtual throughput: %v", st)
	}
	if _, err := s.Submit(context.Background(), queries[0], Normal); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestWaitDispatchesUpToItsTicket: the scheduler runs on its callers'
// goroutines — nothing resolves until someone waits or closes, and a Wait
// dispatches up to its own ticket and no further.
func TestWaitDispatchesUpToItsTicket(t *testing.T) {
	opt, exec, m := fixture(t)
	s := New(opt, exec, m, DefaultConfig())
	var tickets []*Ticket
	for _, name := range []string{"1a", "8c", "17b"} {
		tk, err := s.Submit(context.Background(), job.QueryByName(name), Normal)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if tickets[0].Outcome() != nil {
		t.Fatal("a ticket resolved before anyone progressed the scheduler")
	}
	if o, err := tickets[1].Wait(context.Background()); err != nil || o.Err != nil {
		t.Fatalf("wait: %v / %+v", err, o)
	}
	if tickets[0].Outcome() == nil || tickets[2].Outcome() != nil {
		t.Fatal("Wait must dispatch up to its own ticket and no further")
	}
	s.Close()
	if st := s.Stats(); st.Submitted != 3 || st.Completed != 3 || st.Makespan <= 0 {
		t.Fatalf("drained stats: %+v", st)
	}
}

// busyAt counts the host lanes and devices the ledger still holds at instant t.
func busyAt(l *Ledger, t vclock.Time) (hostLanes, devices int) {
	for _, free := range l.host {
		if free > t {
			hostLanes++
		}
	}
	for _, d := range l.devs {
		if d.until > t {
			devices++
		}
	}
	return hostLanes, devices
}

// holdDevice makes device 0's command slot busy until the given instant.
func holdDevice(s *Scheduler, until vclock.Time) {
	s.loop.ledger.Book(Choice{Host: -1, Dev: 0}, until)
}

// submitWait submits one query and progresses the scheduler until it resolved.
func submitWait(t *testing.T, s *Scheduler, q *query.Query, prio Priority) *Outcome {
	t.Helper()
	tk, err := s.Submit(context.Background(), q, prio)
	if err != nil {
		t.Fatal(err)
	}
	o, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if o.Err != nil {
		t.Fatalf("%s failed: %v", q.Name, o.Err)
	}
	return o
}

// TestAdaptiveDegradesWhenSaturated pins the degradation policy: with the
// fleet's only command slot busy far into the future, a query whose unloaded
// decision is device-bound must still complete — routed to the host instead
// of queueing behind the fleet — and be reported as degraded; with the slot
// free again it lands on the device.
func TestAdaptiveDegradesWhenSaturated(t *testing.T) {
	opt, exec, m := fixture(t)
	q := deviceBoundQuery(t, opt)
	s := New(opt, exec, m, DefaultConfig())
	defer s.Close()

	// First sight: offloading is evidence-gated, so the query runs host-side
	// and teaches its host factor.
	if o := submitWait(t, s, q, High); onDevice(o) || !o.Degraded {
		t.Fatalf("first-sight query left the host: %+v", o)
	}
	holdDevice(s, vclock.Time(math.Inf(1)))
	o := submitWait(t, s, q, High)
	if onDevice(o) {
		t.Fatalf("saturated fleet still placed query on a device (%s)", o.Chosen)
	}
	if !o.Degraded {
		t.Fatalf("device-bound query not marked degraded: chose %s", o.Chosen)
	}

	holdDevice(s, 0)
	if o := submitWait(t, s, q, High); !onDevice(o) {
		t.Fatalf("idle fleet refused device-bound query: chose %s", o.Chosen)
	}
}

// TestForceNDPBackpressure exercises the bounded queue: with the device busy,
// forced-NDP work waits for the command slot, Submit below the queue depth
// only enqueues, and a Submit on the full queue makes room by dispatching —
// every ticket still runs on the device, in virtual time after the slot fell
// free.
func TestForceNDPBackpressure(t *testing.T) {
	opt, exec, m := fixture(t)
	q := ndpFeasibleQuery(t, opt, m)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	cfg.Policy = ForceNDP
	s := New(opt, exec, m, cfg)

	busyUntil := vclock.Time(vclock.Second)
	holdDevice(s, busyUntil)
	t1, err := s.Submit(context.Background(), q, Normal)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Submit(context.Background(), q, Batch)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Outcome() != nil {
		t.Fatal("Submit below the queue depth progressed the loop")
	}
	t3, err := s.Submit(context.Background(), q, High)
	if err != nil {
		t.Fatalf("Submit on a full queue: %v", err)
	}
	if t1.Outcome() == nil {
		t.Fatal("Submit on a full queue did not dispatch the head ticket")
	}
	s.Close()
	for _, tk := range []*Ticket{t1, t2, t3} {
		o := tk.Outcome()
		if o == nil || o.Err != nil {
			t.Fatalf("ticket unresolved or failed after drain: %+v", o)
		}
		if !onDevice(o) {
			t.Fatalf("forced NDP ran off-device: %s", o.Chosen)
		}
	}
	if w := t1.Outcome().QueueWait; w != vclock.Duration(busyUntil) {
		t.Fatalf("head ticket waited %v for a slot busy until %v", w, busyUntil)
	}
	st := s.Stats()
	if st.Completed != 3 || st.Rejected != 0 {
		t.Fatalf("completed = %d, rejected = %d, want 3 and 0 (%v)", st.Completed, st.Rejected, st)
	}
}

// queued is a bare queue item for driving Queue directly.
type queued struct{ at vclock.Time }

func (q *queued) QueuedAt() vclock.Time { return q.at }

// TestPopAgingPreventsStarvation drives the priority queue directly: under a
// continuous high-priority stream, every fourth dispatch must still take the
// oldest waiting item, so the batch class advances.
func TestPopAgingPreventsStarvation(t *testing.T) {
	q := NewQueue[*queued](16)
	batch := &queued{at: 0} // oldest item overall
	q.Push(Batch, batch)
	for i := 1; i <= 8; i++ {
		q.Push(High, &queued{at: vclock.Time(i)})
	}
	var batchAt int
	for i := 1; q.Len() > 0; i++ {
		if next, _ := q.Peek(); next == batch != q.Aging() && i < 5 {
			t.Fatalf("pop %d: Peek and Aging disagree", i)
		}
		if item, _ := q.Pop(); item == batch {
			batchAt = i
		}
	}
	if batchAt != 4 {
		t.Fatalf("batch item dispatched at pop %d; the aging dispatch (every 4th) must take the oldest", batchAt)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on an empty queue")
	}
	if q.Push(High, batch); !q.Aging() == (q.pops%4 == 3) {
		t.Fatal("an empty pop consumed a dispatch count")
	}
}

// TestQueueReusesItsArrays pins that a warm queue allocates nothing: push/pop
// cycles at every fill level up to depth, the aging dispatch among them, and
// Sweep reuse the classes' arrays, and a dispatched item is no longer
// referenced by the queue.
func TestQueueReusesItsArrays(t *testing.T) {
	q := NewQueue[*queued](8)
	items := make([]*queued, 8)
	for i := range items {
		items[i] = &queued{at: vclock.Time(i)}
	}
	cycle := func() {
		for fill := 1; fill <= len(items); fill++ {
			for i := 0; i < 3*fill; i++ {
				q.Push(Priority(i%numPriorities), items[i%fill])
				if q.Len() == fill {
					q.Pop()
				}
			}
			for q.Len() > 0 {
				q.Pop()
			}
		}
		q.Push(Batch, items[0])
		q.Push(High, items[1])
		q.Sweep(func(it *queued) bool { return it == items[0] })
		q.Pop()
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a warm queue allocated %v times per cycle, want 0", n)
	}
	for c := range q.classes {
		for _, it := range q.classes[c].items[:cap(q.classes[c].items)] {
			if it != nil {
				t.Fatalf("class %d still references a dispatched item %+v", c, it)
			}
		}
	}
}

// TestLedgerAccounting covers the ledger without a dataset — lanes and
// devices fall free at the instants booked — and with one: after a drain that
// included failed runs every lane and device is free. The ledger tracks no
// device memory; TestTightBudgetOneMemoryMask carries that guarantee (every
// consumer masks its candidates with the decision's memory plans).
func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(4, 2)
	ndp := []Candidate{{Strategy: coop.Strategy{Kind: coop.NDPOnly}, Service: 100}}
	c0 := Place(l, 0, ndp, Adaptive)
	l.Book(c0, c0.Done)
	c1 := Place(l, 0, ndp, Adaptive)
	if c1.Dev == c0.Dev || c1.Start != 0 {
		t.Fatalf("second command should start at once on the other device: %+v after %+v", c1, c0)
	}
	l.Book(c1, c1.Done)
	if c2 := Place(l, 0, ndp, Adaptive); c2.Start != 100 {
		t.Fatalf("both command slots busy until 100, third command starts at %v", c2.Start)
	}
	if host, devs := busyAt(l, 50); host != 0 || devs != 2 {
		t.Fatalf("occupancy at 50: host=%d devices=%d", host, devs)
	}
	if host, devs := busyAt(l, 100); host != 0 || devs != 0 {
		t.Fatalf("occupancy at 100: host=%d devices=%d", host, devs)
	}

	// A drain that includes failed runs, through the loop itself: every other
	// job's run errors out. A failed run books nothing — the lanes it was
	// placed on are free again from its start instant — so afterwards every
	// lane and device is free and the makespan is the healthy
	// runs' alone.
	f := &stubFront{}
	for i := 0; i < 8; i++ {
		f.jobs = append(f.jobs, &stubJob{fail: i%2 == 1, cand: Candidate{Strategy: coop.Strategy{Kind: coop.Hybrid, Split: 1}, Service: 100}})
	}
	l = NewLedger(1, 1)
	loop := NewLoop[*stubJob](l, Adaptive, stubRunner{}, f)
	loop.Drain()
	if f.failed != 4 || f.done != 8 {
		t.Fatalf("stub drain: %d done, %d failed", f.done, f.failed)
	}
	if loop.Makespan() != 400 {
		t.Fatalf("makespan %v: failed runs occupied their lanes", loop.Makespan())
	}
	if host, devs := busyAt(l, vclock.Time(loop.Makespan())); host != 0 || devs != 0 {
		t.Fatalf("after the drain: %d host lanes, %d devices busy", host, devs)
	}

	// And through the scheduler: a query that fails in planning resolves
	// with its error — not as a queue expiry — and leaves the ledger alone.
	opt, exec, model := fixture(t)
	s := New(opt, exec, model, DefaultConfig())
	bad, err := s.Submit(context.Background(), &query.Query{Name: "bad"}, Normal)
	if err != nil {
		t.Fatal(err)
	}
	submitWait(t, s, job.Queries()[0], Normal)
	s.Close()
	if o := bad.Outcome(); o == nil || o.Err == nil || errors.Is(o.Err, ErrExpired) {
		t.Fatalf("unplannable query: %+v", o)
	}
	st := s.Stats()
	alone := New(opt, exec, model, DefaultConfig())
	submitWait(t, alone, job.Queries()[0], Normal)
	alone.Close()
	if st.Completed != 1 || st.Errors != 1 || st.Makespan != alone.Stats().Makespan {
		t.Fatalf("drain with a planning failure: %+v", st)
	}
	if host, devs := busyAt(s.loop.ledger, vclock.Time(st.Makespan)); host != 0 || devs != 0 {
		t.Fatalf("after the drain: %d host lanes, %d devices busy", host, devs)
	}
}

// stubJob, stubFront and stubRunner drive a Loop without a dataset: each job
// offers its one candidate, and its run fails on demand.
type stubJob struct {
	cand Candidate
	fail bool
}

type stubFront struct {
	jobs         []*stubJob
	done, failed int
}

func (f *stubFront) Pick(vclock.Time) (*stubJob, bool) {
	if len(f.jobs) == 0 {
		return nil, false
	}
	j := f.jobs[0]
	f.jobs = f.jobs[1:]
	return j, true
}

func (f *stubFront) Admit(*stubJob, Candidate, Choice) bool { return true }

func (f *stubFront) Done(_ *stubJob, _ Candidate, _ Choice, _ vclock.Duration, err error) {
	f.done++
	if err != nil {
		f.failed++
	}
}

type stubRunner struct{}

func (stubRunner) Candidates(j *stubJob, _ vclock.Time, buf []Candidate) ([]Candidate, error) {
	return append(buf, j.cand), nil
}

func (stubRunner) Run(j *stubJob, c Candidate, _ Choice) (vclock.Duration, error) {
	if j.fail {
		return 0, errors.New("stub: run failed")
	}
	return c.Service, nil
}

// TestExecutorErrorSurfaces runs forced-NDP tickets on an executor whose NDP
// budget is below every memory plan the optimizer (priced with the full
// budget) offers: the device rejects the command, and the error surfaces on
// the ticket and in sched.errors instead of being hidden behind a host-native
// re-run. The coop path and the fleet path are each checked.
func TestExecutorErrorSurfaces(t *testing.T) {
	opt, _, m := fixture(t)
	q := deviceBoundQuery(t, opt)
	small := m
	small.DeviceNDPBudget = 1

	t.Run("coop", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Policy = ForceNDP
		cfg.Metrics = obs.NewRegistry()
		s := New(opt, coop.NewExecutor(dsInst.Cat, dsInst.DB, small), m, cfg)
		defer s.Close()
		o := submitOutcome(t, s, q)
		if !errors.Is(o.Err, device.ErrMemoryBudget) {
			t.Fatalf("%s ran %s: outcome error %v, want device.ErrMemoryBudget", q.Name, o.Chosen, o.Err)
		}
		if n := cfg.Metrics.Counter("sched.errors").Value(); n != 1 {
			t.Fatalf("sched.errors = %v, want 1", n)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		desc, err := fleet.Build(dsInst.Cat, 4, fleet.SchemeRange)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Policy = ForceNDP
		cfg.Fleet = fleet.NewExecutor(dsInst.Cat, dsInst.DB, small, desc)
		s := New(opt, coop.NewExecutor(dsInst.Cat, dsInst.DB, m), m, cfg)
		defer s.Close()
		o := submitOutcome(t, s, q)
		if !errors.Is(o.Err, device.ErrMemoryBudget) {
			t.Fatalf("%s: fleet outcome error %v, want device.ErrMemoryBudget", q.Name, o.Err)
		}
	})
}

// submitOutcome submits one query and progresses the scheduler until it
// resolved, whatever the outcome.
func submitOutcome(t *testing.T, s *Scheduler, q *query.Query) *Outcome {
	t.Helper()
	tk, err := s.Submit(context.Background(), q, Normal)
	if err != nil {
		t.Fatal(err)
	}
	o, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return o
}
