package sched

import (
	"context"
	"errors"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/fault"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/vclock"
)

// TestDeadlinePropagation follows one request deadline through all three
// layers it can die in: the admission queue (virtual queue wait), a
// cooperative retry loop (virtual execution budget) and a fleet gather
// (per-shard degradation). In every case the request either fails with
// ErrExpired or completes with the exact host-native answer — a deadline
// changes latency and placement, never a result.
func TestDeadlinePropagation(t *testing.T) {
	t.Run("queue", func(t *testing.T) {
		opt, exec, m := fixture(t)
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.Policy = ForceHost
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		s := New(opt, exec, m, cfg)
		q := job.Queries()[0]
		// One host lane. Two deadline-free tickets run back to back, which
		// moves the clock past the 1ns queue deadline of the six behind them:
		// the third dispatch meets the first dead ticket on its own turn, the
		// fourth — the aging dispatch — sweeps the other five out of the queue.
		var free, bound []*Ticket
		for i := 0; i < 8; i++ {
			dl := Deadline{}
			if i >= 2 {
				dl.Queue = vclock.Nanosecond
			}
			tk, err := s.SubmitDeadline(context.Background(), q, Normal, dl)
			if err != nil {
				t.Fatal(err)
			}
			if i < 2 {
				free = append(free, tk)
			} else {
				bound = append(bound, tk)
			}
		}
		s.Close()
		for _, tk := range free {
			if o := tk.Outcome(); o == nil || o.Err != nil {
				t.Fatalf("deadline-free ticket: %+v", o)
			}
		}
		for _, tk := range bound {
			o := tk.Outcome()
			if o == nil {
				t.Fatal("ticket unresolved after Close")
			}
			if !errors.Is(o.Err, ErrExpired) {
				t.Fatalf("queue-dead outcome = %v, want ErrExpired", o.Err)
			}
			if o.QueueWait <= vclock.Nanosecond {
				t.Fatalf("expired after a virtual queue wait of %v", o.QueueWait)
			}
		}
		// Expiry is counted at one site, whichever way the queue met the
		// ticket: every one of the six died of its own deadline.
		expired := reg.Counter("sched.rejected.expired").Value()
		swept := reg.Counter("sched.queue.aged_expiry").Value()
		if expired != 6 || reg.Counter("sched.rejected.deadline").Value() != expired {
			t.Fatalf("expired=%d deadline=%d, want 6 and 6", expired, reg.Counter("sched.rejected.deadline").Value())
		}
		if swept != 5 {
			t.Fatalf("aging sweep expired %d tickets, want 5 (one met on its own dispatch)", swept)
		}
		if st := s.Stats(); st.Rejected != expired || st.Completed != 2 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("mid-retry", func(t *testing.T) {
		opt, _, m := fixture(t)
		q := ndpFeasibleQuery(t, opt, m)
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		base := coop.NewExecutor(dsInst.Cat, dsInst.DB, m)
		hostRep, err := base.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := fault.Parse("dev.crash@batch=0,seed=3")
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		x := coop.NewExecutor(dsInst.Cat, dsInst.DB, m)
		x.Faults = pl
		x.Metrics = reg
		// 1ns of execution budget: the very first injected crash lands past
		// the deadline, so the executor must skip its retry/backoff loop and
		// fall back to the host immediately.
		rep, err := x.RunDeadline(d.Plan, coop.Strategy{Kind: coop.NDPOnly}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.FellBack {
			t.Fatal("deadline-dead retry did not fall back to host")
		}
		if rep.FaultRetries != 0 {
			t.Fatalf("executor retried %d times against a 1ns budget", rep.FaultRetries)
		}
		if got := reg.Counter("coop.deadline.fallback").Value(); got != 1 {
			t.Fatalf("coop.deadline.fallback = %d, want 1", got)
		}
		if reg.Counter("coop.retry").Value() != 0 {
			t.Fatal("retry counter moved despite the deadline guard")
		}
		if rep.Result.RowCount != hostRep.Result.RowCount {
			t.Fatal("deadline fallback changed the result")
		}
	})

	t.Run("mid-gather", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Workers = 1
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		s, _ := fleetFixture(t, cfg)
		defer s.Close()
		opt, _, _ := fixture(t)
		q := deviceBoundQuery(t, opt)
		tk, err := s.SubmitDeadline(context.Background(), q, Normal, Deadline{Exec: 1})
		if err != nil {
			t.Fatal(err)
		}
		o, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if !o.Degraded {
			t.Fatal("1ns exec deadline did not degrade the fleet gather")
		}
		if reg.Counter("fleet.deadline.degraded").Value() == 0 {
			t.Fatal("fleet deadline-degradation counter never incremented")
		}
	})
}
