package sched

import (
	"context"
	"strings"
	"testing"

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
	cfg.Fleet = fx
	s := New(opt, exec, m, cfg)
	return s, fx
}

// TestFleetSchedulerCompletes routes every JOB query through sharded fleet
// execution: every ticket completes without error, and some run device-side.
// That a fleet run's answer matches the host's is the fleet package's
// fingerprint tests, over the same PlanShards assignments.
func TestFleetSchedulerCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, fx := fleetFixture(t, cfg)
	defer s.Close()
	if fx.Gate == nil {
		t.Fatal("scheduler did not wire the fleet admission gate")
	}
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
	}
	if !sawFleet {
		t.Fatal("no query ran device-side fleet execution")
	}
	if reg.Counter("sched.fleet.runs").Value() == 0 {
		t.Fatal("fleet run counter never incremented")
	}
}

// TestFleetSizesLedger pins that a fleet, not Config.Devices, sizes the
// ledger: a 4-device fleet under DefaultConfig (Devices 1) admits and denies
// exactly the shards it does with Devices 4, and reports four device lanes.
func TestFleetSizesLedger(t *testing.T) {
	type tally struct{ admitted, denied int64 }
	run := func(devices int) (tally, Stats) {
		cfg := DefaultConfig()
		cfg.Devices = devices
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		s, _ := fleetFixture(t, cfg)
		for _, q := range job.Queries()[:40] {
			if o := submitOutcome(t, s, q); o.Err != nil {
				t.Fatalf("%s: %v", q.Name, o.Err)
			}
		}
		s.Close()
		return tally{reg.Counter("sched.fleet.shard.admitted").Value(), reg.Counter("sched.fleet.shard.denied").Value()}, s.Stats()
	}
	got, st := run(DefaultConfig().Devices)
	want, _ := run(4)
	if got != want || got.admitted == 0 {
		t.Fatalf("DefaultConfig with a 4-device fleet: %+v shards admitted/denied, with Devices 4: %+v", got, want)
	}
	if st.DevLanes != 4 {
		t.Fatalf("DevLanes %d, want the fleet's 4", st.DevLanes)
	}
}

// TestFleetBreakerDegradesShards trips one device's circuit breaker and
// requires the next fleet run to degrade that device's shard (partial-fleet
// degradation) while still completing — and to keep the breaker fed through
// the fleet gate's release path.
func TestFleetBreakerDegradesShards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, _ := fleetFixture(t, cfg)
	defer s.Close()

	opt, _, _ := fixture(t)
	q := deviceBoundQuery(t, opt)
	// Trip device 1's breaker directly through the ledger, as consecutive
	// shard failures would: the third failure trips it. The one run below
	// passes it fewer than breakerProbeAfter admissions, so it stays open.
	for i := 1; i <= 3; i++ {
		if n := reg.Counter("sched.breaker.tripped").Value(); n != 0 {
			t.Fatalf("breaker tripped after %d failures", i-1)
		}
		s.loop.ledger.Report(1, false)
	}
	if n := reg.Counter("sched.breaker.tripped").Value(); n != 1 {
		t.Fatalf("breaker tripped %d times after three failures, want 1", n)
	}

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

	// A healthy device keeps being admitted: the gate's release path reports
	// successes into the breaker, so device 0 stays closed.
	if got := reg.Counter("sched.fleet.shard.admitted").Value(); got == 0 {
		t.Fatal("no shard was admitted on the healthy devices")
	}
}

// TestFleetCrashedShardsOpenBreaker closes the loop the test above shortcuts:
// a shard whose device command crashes releases ok=false through the fleet
// gate, so breakerThreshold consecutive crashed runs open that device's
// breaker on their own, and the run after them has its shard denied.
func TestFleetCrashedShardsOpenBreaker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
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
	for i := 0; i < breakerThreshold; i++ {
		run()
		if got := reg.Counter("sched.fleet.shard.denied").Value(); got != 0 {
			t.Fatalf("run %d: shard denied before the breaker threshold was reached", i)
		}
	}
	run()
	if got := reg.Counter("sched.fleet.shard.denied").Value(); got != 1 {
		t.Fatalf("after %d crashed runs the next run denied %d shards, want 1 (device 1's)", breakerThreshold, got)
	}
}
