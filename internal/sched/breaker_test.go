package sched

import (
	"context"
	"testing"

	"hybridndp/internal/fault"
	"hybridndp/internal/obs"
)

// TestBreakerTripsRoutesAndRecovers walks the circuit breaker through its
// full deterministic lifecycle at the production tuning: the third consecutive
// device command failure (a 100%-crash fault plan makes the executor fall
// back to the host, which the scheduler reports as a failed device command)
// trips the breaker; the next seven admissions route around the open device;
// the eighth makes it half-open and is the probe, which — the device is healed
// by then — closes it again.
func TestBreakerTripsRoutesAndRecovers(t *testing.T) {
	opt, exec, m := fixture(t)
	q := ndpFeasibleQuery(t, opt, m)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Policy = ForceNDP
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	exec.Metrics = reg // the executor counts its host fallbacks here
	s := New(opt, exec, m, cfg)
	defer s.Close()

	crash, err := fault.Parse("dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	exec.Faults = crash
	defer func() { exec.Faults = nil }()

	// run reports the outcome and whether the executor fell back to the host.
	run := func() (*Outcome, bool) {
		t.Helper()
		before := reg.Counter("coop.fallback.host").Value()
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
		return o, reg.Counter("coop.fallback.host").Value() > before
	}

	// Three failing device commands: each completes (executor host fallback)
	// but counts as a device failure, so the third trips the breaker.
	if breakerThreshold != 3 || breakerProbeAfter != 8 {
		t.Fatalf("breaker tuning %d/%d, this test walks 3/8", breakerThreshold, breakerProbeAfter)
	}
	for i := 1; i <= 3; i++ {
		if o, fellBack := run(); !onDevice(o) {
			t.Fatalf("command %d never reached the device: %+v", i, o)
		} else if !fellBack {
			t.Fatalf("command %d did not fall back under a 100%% crash device", i)
		}
		want := int64(0)
		if i == 3 {
			want = 1
		}
		if n := reg.Counter("sched.breaker.tripped").Value(); n != want {
			t.Fatalf("breaker tripped %d times after %d consecutive failures, want %d", n, i, want)
		}
	}

	// Open breaker: the next seven forced-NDP admissions fail fast and route
	// host-side.
	for i := 1; i <= 7; i++ {
		if o, _ := run(); onDevice(o) {
			t.Fatalf("admission %d: open breaker still placed the query on a device (%s)", i, o.Chosen)
		}
		if n := reg.Counter("sched.breaker.routed.host").Value(); n != int64(i) {
			t.Fatalf("host routing counted %d times after %d admissions while open", n, i)
		}
	}
	if n := reg.Counter("sched.breaker.probe").Value(); n != 0 {
		t.Fatalf("probe counted %d times before the eighth admission", n)
	}

	// Device healed: the eighth admission goes half-open and is the probe,
	// whose on-device success closes the breaker.
	exec.Faults = nil
	if o, fellBack := run(); !onDevice(o) {
		t.Fatalf("half-open probe never reached the device: %+v", o)
	} else if fellBack {
		t.Fatal("healed probe still fell back to the host")
	}
	if n := reg.Counter("sched.breaker.probe").Value(); n != 1 {
		t.Fatalf("probe counted %d times, want 1", n)
	}
	if n := reg.Counter("sched.breaker.recovered").Value(); n != 1 {
		t.Fatalf("recovery counted %d times, want 1", n)
	}

	// Closed again: the follow-up lands on the device without another probe.
	if o, _ := run(); !onDevice(o) {
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
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	exec.Metrics = reg // the executor counts its host fallbacks here
	s := New(opt, exec, m, cfg)
	defer s.Close()

	crash, err := fault.Parse("dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	exec.Faults = crash
	defer func() { exec.Faults = nil }()

	// run reports the outcome and whether the executor fell back to the host.
	run := func() (*Outcome, bool) {
		t.Helper()
		before := reg.Counter("coop.fallback.host").Value()
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
		return o, reg.Counter("coop.fallback.host").Value() > before
	}

	for i := 0; i < breakerThreshold; i++ {
		run() // the last one trips
	}
	// Every breakerProbeAfter-th admission is a half-open probe, and every
	// probe fails while the crash plan is active — the breaker re-opens each
	// time without re-tripping, and the admissions between probes route
	// host-side.
	for p := 1; p <= 2; p++ {
		for i := 1; i < breakerProbeAfter; i++ {
			if o, _ := run(); onDevice(o) {
				t.Fatalf("cycle %d admission %d: re-opened breaker placed the query on a device (%s)", p, i, o.Chosen)
			}
		}
		if o, fellBack := run(); !onDevice(o) || !fellBack {
			t.Fatalf("probe %d: %+v, fell back %v", p, o, fellBack)
		}
		if n := reg.Counter("sched.breaker.probe").Value(); n != int64(p) {
			t.Fatalf("probe counter = %d after %d cycles", n, p)
		}
	}
	if n := reg.Counter("sched.breaker.tripped").Value(); n != 1 {
		t.Fatalf("probe failures re-counted as trips (%d)", n)
	}
	if n := reg.Counter("sched.breaker.recovered").Value(); n != 0 {
		t.Fatalf("failed probes recorded a recovery (%d)", n)
	}
}
