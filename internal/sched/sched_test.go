package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"hybridndp/internal/clock"
	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
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

// TestSchedulerRaceStress hammers one scheduler from many goroutines; run
// with -race it verifies the concurrent-serving path end to end (satellite:
// controller/executor safety under concurrent Run).
func TestSchedulerRaceStress(t *testing.T) {
	opt, exec, m := fixture(t)
	cfg := DefaultConfig()
	cfg.Devices = 2
	cfg.QueueDepth = 128
	s := New(opt, exec, m, cfg)
	names := []string{"1a", "6f", "8c", "17b", "32b"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := job.QueryByName(names[(g+i)%len(names)])
				tk, err := s.Submit(context.Background(), q, Priority(i%numPriorities))
				if err != nil {
					errs <- err
					return
				}
				o, err := tk.Wait(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if o.Err != nil {
					errs <- o.Err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Close()
	st := s.Stats()
	if st.Completed != 24 || st.Errors != 0 {
		t.Fatalf("stress stats: %+v", st)
	}
}

// TestAdaptiveDegradesWhenSaturated pins the degradation policy: with every
// device slot held, a query whose unloaded decision is device-bound must
// still complete — routed to the host instead of queueing behind the fleet —
// and be reported as degraded.
func TestAdaptiveDegradesWhenSaturated(t *testing.T) {
	opt, exec, m := fixture(t)
	q := deviceBoundQuery(t, opt)
	s := New(opt, exec, m, DefaultConfig())
	defer s.Close()

	// Hold the fleet's only command slot so every TryAcquire fails. The
	// claim books no estimated work, so releasing it later restores an
	// attractive (unloaded) device.
	block := Claim{MemBytes: 0, BufSlots: 0, EstDeviceNs: 0}
	dev, ok := s.ledger.TryAcquire(block)
	if !ok {
		t.Fatal("could not saturate fresh ledger")
	}
	tk, err := s.Submit(context.Background(), q, High)
	if err != nil {
		t.Fatal(err)
	}
	o, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if o.Err != nil {
		t.Fatalf("degraded query failed: %v", o.Err)
	}
	if o.Device != -1 {
		t.Fatalf("saturated fleet still placed query on device %d", o.Device)
	}
	if !o.Degraded {
		t.Fatalf("device-bound query (%s unloaded) not marked degraded: chose %s", o.Unloaded, o.Chosen)
	}
	s.ledger.Release(dev, block)

	// With the slot free again the same query must land on the device.
	tk2, err := s.Submit(context.Background(), q, High)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := tk2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if o2.Err != nil {
		t.Fatal(o2.Err)
	}
	if o2.Device < 0 {
		t.Fatalf("idle fleet refused device-bound query: chose %s", o2.Chosen)
	}
}

// TestForceNDPBackpressure exercises the bounded queue and the blocking
// admission path: with the device held, a forced-NDP worker blocks in
// Acquire, the queue fills, TrySubmit reports backpressure and a
// deadline-bound Submit gives up; releasing the device drains everything.
func TestForceNDPBackpressure(t *testing.T) {
	opt, exec, m := fixture(t)
	q := ndpFeasibleQuery(t, opt, m)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	cfg.Policy = ForceNDP
	s := New(opt, exec, m, cfg)

	block := Claim{EstDeviceNs: 1e12}
	dev, ok := s.ledger.TryAcquire(block)
	if !ok {
		t.Fatal("could not saturate fresh ledger")
	}
	t1, err := s.Submit(context.Background(), q, Normal)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has popped t1 and is blocked in Acquire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		queued := s.queued
		s.mu.Unlock()
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocked query")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the bounded queue behind the blocked worker.
	t2, err := s.TrySubmit(q, Normal)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.TrySubmit(q, Batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrySubmit(q, High); err != ErrQueueFull {
		t.Fatalf("overfull TrySubmit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, q, High); err != context.DeadlineExceeded {
		t.Fatalf("deadline-bound Submit on full queue: %v", err)
	}
	// Free the device: the blocked worker acquires, runs, and drains t2/t3.
	s.ledger.Release(dev, block)
	for _, tk := range []*Ticket{t1, t2, t3} {
		o, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Device < 0 {
			t.Fatalf("forced NDP ran off-device: %s", o.Chosen)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3 (%v)", st.Completed, st)
	}
	if st.Rejected == 0 {
		t.Fatalf("backpressure not counted: %+v", st)
	}
}

// TestPopAgingPreventsStarvation drives the priority queue directly: under a
// continuous high-priority stream, every fourth dispatch must still take the
// oldest waiting ticket, so the batch class advances.
func TestPopAgingPreventsStarvation(t *testing.T) {
	s := &Scheduler{cfg: DefaultConfig().withDefaults()}
	base := time.Now().Add(-time.Minute)
	enq := func(p Priority, age time.Duration) *Ticket {
		tk := &Ticket{priority: p, submitted: base.Add(age)}
		s.queues[p] = append(s.queues[p], tk)
		s.queued++
		return tk
	}
	batch := enq(Batch, 0) // oldest ticket overall
	for i := 0; i < 8; i++ {
		enq(High, time.Duration(i+1)*time.Second)
	}
	var batchAt int
	for i := 1; s.queued > 0; i++ {
		tk := s.popLocked()
		if tk == batch {
			batchAt = i
		}
	}
	if batchAt == 0 || batchAt > 4 {
		t.Fatalf("batch ticket dispatched at pop %d; aging should bound it to 4", batchAt)
	}
}

// TestLedgerAccounting covers the resource arithmetic without a dataset.
func TestLedgerAccounting(t *testing.T) {
	m := hw.Cosmos()
	l := NewLedger(m, 2, 1, 4)
	c := Claim{MemBytes: m.DeviceNDPBudget / 2, BufSlots: 1, EstDeviceNs: 100}
	d0, ok := l.TryAcquire(c)
	if !ok {
		t.Fatal("first acquire failed")
	}
	d1, ok := l.TryAcquire(c)
	if !ok || d1 == d0 {
		t.Fatalf("second acquire should land on the other device (got %d after %d, ok=%v)", d1, d0, ok)
	}
	if _, ok := l.TryAcquire(c); ok {
		t.Fatal("both command slots held, third acquire must fail")
	}
	ld := l.Snapshot()
	if ld.CmdFree != 0 || ld.Devices != 2 || ld.DeviceAssignedNs != 100 {
		t.Fatalf("snapshot under load: %+v", ld)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx, c); err != context.DeadlineExceeded {
		t.Fatalf("blocked Acquire must honor ctx: %v", err)
	}
	l.Release(d0, c)
	l.Release(d1, c)
	ld = l.Snapshot()
	// Resources return; the assigned-work counter is monotone by design.
	if ld.CmdFree != 2 || ld.DeviceAssignedNs != 100 || ld.MemFree != 2*m.DeviceNDPBudget {
		t.Fatalf("snapshot after release: %+v", ld)
	}
	// Oversized claims must never be admitted.
	if _, ok := l.TryAcquire(Claim{MemBytes: m.DeviceNDPBudget + 1}); ok {
		t.Fatal("claim larger than the NDP budget admitted")
	}
}

// TestAgingUsesInjectedClock pins priority aging to the injected clock rather
// than the wall: every ticket is stamped from a clock.Fake, the fake is
// advanced between submissions so the starved batch ticket is strictly the
// oldest, and the fourth dispatch (the aging slot) must promote it past the
// steady high-priority stream. With a wall clock this ordering would ride on
// scheduler timing; with the fake it is exact.
func TestAgingUsesInjectedClock(t *testing.T) {
	fake := clock.NewFake()
	cfg := DefaultConfig()
	cfg.Clock = fake
	s := &Scheduler{cfg: cfg.withDefaults()}
	enq := func(p Priority) *Ticket {
		tk := &Ticket{priority: p, submitted: s.cfg.Clock.Now()}
		s.queues[p] = append(s.queues[p], tk)
		s.queued++
		return tk
	}
	batch := enq(Batch)
	for i := 0; i < 8; i++ {
		fake.Advance(time.Second) // every High arrival is strictly younger
		enq(High)
	}
	var batchAt int
	for i := 1; s.queued > 0; i++ {
		if s.popLocked() == batch {
			batchAt = i
		}
	}
	if batchAt != 4 {
		t.Fatalf("batch ticket dispatched at pop %d; the aging dispatch (every 4th) must take the fake-clock-oldest ticket", batchAt)
	}
	// The queue-wait measurement must come from the injected clock too.
	if wait := s.cfg.Clock.Since(batch.submitted); wait != 8*time.Second {
		t.Fatalf("fake-clock queue wait = %v, want 8s", wait)
	}
}
