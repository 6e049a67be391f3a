package sched

import (
	"context"
	"strings"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/fault"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
)

// fleetFixture assembles a scheduler over a 4-device fleet executor whose
// admission gate is wired to the scheduler's ledger.
func fleetFixture(t *testing.T, cfg Config) (*Scheduler, *fleet.Executor) {
	t.Helper()
	opt, exec, m := fixture(t)
	desc, err := fleet.Build(dsInst.Cat, 4, fleet.SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	if err := desc.Validate(dsInst.Cat); err != nil {
		t.Fatal(err)
	}
	fx := fleet.NewExecutor(dsInst.Cat, dsInst.DB, m, desc)
	cfg.Devices = 4
	cfg.Fleet = fx
	s := New(opt, exec, m, cfg)
	return s, fx
}

// TestFleetSchedulerCompletesAndMatchesHost routes every JOB query through
// sharded fleet execution and checks each result's row count against a plain
// host-native execution — scatter-gather through the scheduler must never
// change an answer.
func TestFleetSchedulerCompletesAndMatchesHost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, fx := fleetFixture(t, cfg)
	defer s.Close()
	if fx.Gate == nil {
		t.Fatal("scheduler did not wire the fleet admission gate")
	}
	opt, exec, _ := fixture(t)

	queries := job.Queries()
	tickets := make([]*Ticket, 0, len(queries))
	for _, q := range queries {
		tk, err := s.Submit(context.Background(), q, Normal)
		if err != nil {
			t.Fatalf("submit %s: %v", q.Name, err)
		}
		tickets = append(tickets, tk)
	}
	sawFleet := false
	for i, tk := range tickets {
		o, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if o.Err != nil {
			t.Fatalf("%s: %v", queries[i].Name, o.Err)
		}
		if strings.HasPrefix(o.Chosen, "fleet:") && o.Chosen != "fleet:host" {
			sawFleet = true
		}
		d, err := opt.Decide(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		base, err := exec.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			t.Fatal(err)
		}
		if o.Report == nil || o.Report.Result.RowCount != base.Result.RowCount {
			t.Fatalf("%s: fleet result diverges from host-native baseline", queries[i].Name)
		}
	}
	if !sawFleet {
		t.Fatal("no query ran device-side fleet execution")
	}
	if reg.Counter("sched.fleet.runs").Value() == 0 {
		t.Fatal("fleet run counter never incremented")
	}
}

// TestFleetBreakerDegradesShards trips one device's circuit breaker and
// requires the next fleet run to degrade that device's shard (partial-fleet
// degradation) while still completing with the correct answer — and to keep
// the breaker fed through the fleet gate's release path.
func TestFleetBreakerDegradesShards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.BreakerThreshold = 2
	cfg.BreakerProbeAfter = 100 // keep the breaker open for the whole test
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, _ := fleetFixture(t, cfg)
	defer s.Close()

	opt, exec, _ := fixture(t)
	q := deviceBoundQuery(t, opt)
	// Trip device 1's breaker directly through the ledger, as consecutive
	// shard failures would.
	s.loop.ledger.Report(1, false)
	s.loop.ledger.Report(1, false)

	tk, err := s.Submit(context.Background(), q, Normal)
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
	if !strings.HasPrefix(o.Chosen, "fleet:") {
		t.Fatalf("chosen %q, want a fleet strategy", o.Chosen)
	}
	if !o.Degraded {
		t.Fatal("open breaker did not degrade the fleet run")
	}
	if reg.Counter("sched.fleet.shard.denied").Value() == 0 {
		t.Fatal("shard denial counter never incremented")
	}
	d, err := opt.Decide(q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := exec.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	if o.Report.Result.RowCount != base.Result.RowCount {
		t.Fatal("degraded fleet run changed the result")
	}

	// A healthy device keeps being admitted: the gate's release path reports
	// successes into the breaker, so device 0 stays closed.
	if got := reg.Counter("sched.fleet.shard.admitted").Value(); got == 0 {
		t.Fatal("no shard was admitted on the healthy devices")
	}
}

// TestFleetCrashedShardsOpenBreaker closes the loop the test above shortcuts:
// a shard whose device command crashes releases ok=false through the fleet
// gate, so BreakerThreshold consecutive crashed runs open that device's
// breaker on their own, and the run after them has its shard denied.
func TestFleetCrashedShardsOpenBreaker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.BreakerThreshold = 2
	cfg.BreakerProbeAfter = 100 // keep the breaker open for the whole test
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, fx := fleetFixture(t, cfg)
	defer s.Close()
	pl, err := fault.Parse("dev1:dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	fx.Faults = pl

	opt, _, _ := fixture(t)
	q := deviceBoundQuery(t, opt)
	run := func() {
		t.Helper()
		tk, err := s.Submit(context.Background(), q, Normal)
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
		if !strings.HasPrefix(o.Chosen, "fleet:") {
			t.Fatalf("chosen %q, want a fleet strategy", o.Chosen)
		}
	}
	for i := 0; i < cfg.BreakerThreshold; i++ {
		run()
		if got := reg.Counter("sched.fleet.shard.denied").Value(); got != 0 {
			t.Fatalf("run %d: shard denied before the breaker threshold was reached", i)
		}
	}
	run()
	if got := reg.Counter("sched.fleet.shard.denied").Value(); got != 1 {
		t.Fatalf("after %d crashed runs the next run denied %d shards, want 1 (device 1's)", cfg.BreakerThreshold, got)
	}
}
