package sched

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
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
	for _, tk := range tickets {
		o := tk.Outcome()
		if o == nil {
			t.Fatalf("ticket unresolved after drain")
		}
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Query, o.Err)
		}
		if o.Chosen == "" || o.Unloaded == "" {
			t.Fatalf("%s: outcome lacks strategies: %+v", o.Query, o)
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

// busyAt totals what the ledger still holds at instant t: host lanes, command
// slots, and the device claims behind those slots.
func busyAt(l *Ledger, t vclock.Time) (hostLanes, cmdSlots int, held Claim) {
	for _, free := range l.host {
		if free > t {
			hostLanes++
		}
	}
	for i := range l.devs {
		cmds, c := l.busyAt(i, t)
		cmdSlots += cmds
		held.MemBytes += c.MemBytes
		held.BufSlots += c.BufSlots
	}
	return hostLanes, cmdSlots, held
}

// holdDevice makes device 0's command slot busy until the given instant.
func holdDevice(s *Scheduler, until vclock.Time) {
	s.loop.ledger.Book(Choice{Host: -1, Dev: 0, Slot: 0}, Claim{}, until)
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
	if o := submitWait(t, s, q, High); o.Device != -1 || !o.Degraded {
		t.Fatalf("first-sight query left the host: %+v", o)
	}
	holdDevice(s, vclock.Time(math.Inf(1)))
	o := submitWait(t, s, q, High)
	if o.Device != -1 {
		t.Fatalf("saturated fleet still placed query on device %d", o.Device)
	}
	if !o.Degraded {
		t.Fatalf("device-bound query (%s unloaded) not marked degraded: chose %s", o.Unloaded, o.Chosen)
	}

	holdDevice(s, 0)
	if o := submitWait(t, s, q, High); o.Device < 0 {
		t.Fatalf("idle fleet refused device-bound query: chose %s", o.Chosen)
	}
}

// TestForceNDPBackpressure exercises the bounded queue: with the device busy,
// forced-NDP work waits for the command slot, the queue fills, TrySubmit
// reports backpressure, and a Submit on the full queue makes room by
// dispatching — every ticket still runs on the device, in virtual time after
// the slot fell free.
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
	t1, err := s.TrySubmit(q, Normal)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.TrySubmit(q, Batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrySubmit(q, High); err != ErrQueueFull {
		t.Fatalf("overfull TrySubmit: %v", err)
	}
	if t1.Outcome() != nil {
		t.Fatal("TrySubmit progressed the loop")
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
		if o.Device < 0 {
			t.Fatalf("forced NDP ran off-device: %s", o.Chosen)
		}
	}
	if w := t1.Outcome().QueueWait; w != vclock.Duration(busyUntil) {
		t.Fatalf("head ticket waited %v for a slot busy until %v", w, busyUntil)
	}
	st := s.Stats()
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3 (%v)", st.Completed, st)
	}
	if st.Rejected == 0 {
		t.Fatalf("backpressure not counted: %+v", st)
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

// TestLedgerAccounting covers the ledger without a dataset — lanes fall free
// at the instants booked, claims count only while their command runs, an
// oversized claim never fits — and with one: after a drain that included
// failed runs every lane, command slot and claim is free.
func TestLedgerAccounting(t *testing.T) {
	m := hw.Cosmos()
	l := NewLedger(m, 4, 2)
	half := Claim{MemBytes: m.DeviceNDPBudget / 2, BufSlots: 1}
	ndp := []Candidate{{Strategy: coop.Strategy{Kind: coop.NDPOnly}, Service: 100, Claim: half}}
	c0 := Place(l, 0, ndp, Adaptive)
	l.Book(c0, half, c0.Done)
	c1 := Place(l, 0, ndp, Adaptive)
	if c1.Dev == c0.Dev || c1.Start != 0 {
		t.Fatalf("second command should start at once on the other device: %+v after %+v", c1, c0)
	}
	l.Book(c1, half, c1.Done)
	if c2 := Place(l, 0, ndp, Adaptive); c2.Start != 100 {
		t.Fatalf("both command slots busy until 100, third command starts at %v", c2.Start)
	}
	if host, cmds, held := busyAt(l, 50); host != 0 || cmds != 2 || held.MemBytes != 2*half.MemBytes || held.BufSlots != 2 {
		t.Fatalf("occupancy at 50: host=%d cmds=%d held=%+v", host, cmds, held)
	}
	if host, cmds, held := busyAt(l, 100); host != 0 || cmds != 0 || held != (Claim{}) {
		t.Fatalf("occupancy at 100: host=%d cmds=%d held=%+v", host, cmds, held)
	}
	over := []Candidate{{Strategy: coop.Strategy{Kind: coop.NDPOnly}, Claim: Claim{MemBytes: m.DeviceNDPBudget + 1}}}
	if ch := Place(l, 0, over, Adaptive); ch.Index >= 0 {
		t.Fatalf("claim larger than the NDP budget placed: %+v", ch)
	}

	// A drain that includes failed runs, through the loop itself: every other
	// job's run errors out. A failed run books nothing — the lanes it was
	// placed on are free again from its start instant — so afterwards every
	// lane, command slot and claim is free and the makespan is the healthy
	// runs' alone.
	f := &stubFront{}
	for i := 0; i < 8; i++ {
		f.jobs = append(f.jobs, &stubJob{fail: i%2 == 1, cand: Candidate{Strategy: coop.Strategy{Kind: coop.Hybrid, Split: 1}, Service: 100, Claim: half}})
	}
	l = NewLedger(m, 1, 1)
	loop := NewLoop[*stubJob](l, Adaptive, stubRunner{}, f)
	loop.Drain()
	if f.failed != 4 || f.done != 8 {
		t.Fatalf("stub drain: %d done, %d failed", f.done, f.failed)
	}
	if loop.Makespan() != 400 {
		t.Fatalf("makespan %v: failed runs occupied their lanes", loop.Makespan())
	}
	if host, cmds, held := busyAt(l, vclock.Time(loop.Makespan())); host != 0 || cmds != 0 || held != (Claim{}) {
		t.Fatalf("after the drain: %d host lanes, %d command slots busy, claims %+v held", host, cmds, held)
	}

	// And through the scheduler: a query that fails in planning resolves
	// with its error — not as a queue expiry — and leaves the ledger alone.
	opt, exec, model := fixture(t)
	s := New(opt, exec, model, DefaultConfig())
	bad, err := s.Submit(context.Background(), &query.Query{Name: "bad"}, Normal)
	if err != nil {
		t.Fatal(err)
	}
	ok := submitWait(t, s, job.Queries()[0], Normal)
	s.Close()
	if o := bad.Outcome(); o == nil || o.Err == nil || errors.Is(o.Err, ErrExpired) {
		t.Fatalf("unplannable query: %+v", o)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Errors != 1 || st.Makespan != ok.QueueWait+ok.Elapsed {
		t.Fatalf("drain with a planning failure: %+v", st)
	}
	if host, cmds, held := busyAt(s.loop.ledger, vclock.Time(st.Makespan)); host != 0 || cmds != 0 || held != (Claim{}) {
		t.Fatalf("after the drain: %d host lanes, %d command slots busy, claims %+v held", host, cmds, held)
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
