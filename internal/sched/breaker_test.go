package sched

import (
	"context"
	"testing"

	"hybridndp/internal/fault"
	"hybridndp/internal/obs"
)

// TestBreakerTripsRoutesAndRecovers walks the circuit breaker through its
// full deterministic lifecycle: two consecutive device
// command failures (a 100%-crash fault plan makes the executor fall back to
// the host, which the scheduler reports as a failed device command) trip the
// breaker; the next admission routes around the open device; after the
// configured number of skipped admissions the breaker goes half-open, and the
// probe — the device is healed by then — closes it again.
func TestBreakerTripsRoutesAndRecovers(t *testing.T) {
	opt, exec, m := fixture(t)
	q := ndpFeasibleQuery(t, opt, m)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Policy = ForceNDP
	cfg.BreakerThreshold = 2
	cfg.BreakerProbeAfter = 2
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s := New(opt, exec, m, cfg)
	defer s.Close()

	crash, err := fault.Parse("dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	exec.Faults = crash
	defer func() { exec.Faults = nil }()

	run := func() *Outcome {
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
			t.Fatalf("query failed under chaos (recovery must absorb faults): %v", o.Err)
		}
		return o
	}

	// Two failing device commands: each completes (executor host fallback) but
	// counts as a device failure, so the second trips the breaker.
	for i := 0; i < 2; i++ {
		if o := run(); o.Device < 0 {
			t.Fatalf("command %d never reached the device: %+v", i, o)
		} else if o.Report == nil || !o.Report.FellBack {
			t.Fatalf("command %d did not fall back under a 100%% crash device", i)
		}
	}
	if n := reg.Counter("sched.breaker.tripped").Value(); n != 1 {
		t.Fatalf("breaker tripped %d times after two consecutive failures, want 1", n)
	}

	// Open breaker: forced-NDP admission fails fast and routes host-side.
	if o := run(); o.Device != -1 {
		t.Fatalf("open breaker still placed the query on device %d", o.Device)
	}
	if n := reg.Counter("sched.breaker.routed.host").Value(); n != 1 {
		t.Fatalf("host routing counted %d times while open, want 1", n)
	}

	// Device healed: the next admission (the second skip) goes half-open and
	// admits a probe, whose on-device success closes the breaker.
	exec.Faults = nil
	if o := run(); o.Device < 0 {
		t.Fatalf("half-open probe never reached the device: %+v", o)
	} else if o.Report == nil || o.Report.FellBack {
		t.Fatal("healed probe still fell back to the host")
	}
	if n := reg.Counter("sched.breaker.probe").Value(); n != 1 {
		t.Fatalf("probe counted %d times, want 1", n)
	}
	if n := reg.Counter("sched.breaker.recovered").Value(); n != 1 {
		t.Fatalf("recovery counted %d times, want 1", n)
	}

	// Closed again: the follow-up lands on the device without another probe.
	if o := run(); o.Device < 0 {
		t.Fatal("recovered device refused the follow-up command")
	}
	if n := reg.Counter("sched.breaker.probe").Value(); n != 1 {
		t.Fatalf("closed breaker probed again (%d probes)", n)
	}
}

// TestBreakerProbeFailureReopens pins the half-open → open edge: a probe that
// fails (faults still active) must re-open the breaker without counting as a
// second trip, and admission keeps routing host-side afterwards.
func TestBreakerProbeFailureReopens(t *testing.T) {
	opt, exec, m := fixture(t)
	q := ndpFeasibleQuery(t, opt, m)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Policy = ForceNDP
	cfg.BreakerThreshold = 1
	cfg.BreakerProbeAfter = 1
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s := New(opt, exec, m, cfg)
	defer s.Close()

	crash, err := fault.Parse("dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	exec.Faults = crash
	defer func() { exec.Faults = nil }()

	run := func() *Outcome {
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
		return o
	}

	run() // trip (threshold 1)
	// probeAfter=1: every subsequent admission is a half-open probe, and every
	// probe fails while the crash plan is active — the breaker re-opens each
	// time without re-tripping.
	for i := 0; i < 3; i++ {
		if o := run(); o.Device < 0 || o.Report == nil || !o.Report.FellBack {
			t.Fatalf("probe %d: %+v", i, o)
		}
	}
	if n := reg.Counter("sched.breaker.tripped").Value(); n != 1 {
		t.Fatalf("probe failures re-counted as trips (%d)", n)
	}
	if n := reg.Counter("sched.breaker.probe").Value(); n != 3 {
		t.Fatalf("probe counter = %d, want 3", n)
	}
	if n := reg.Counter("sched.breaker.recovered").Value(); n != 0 {
		t.Fatalf("failed probes recorded a recovery (%d)", n)
	}
}
