package fleet

import (
	"testing"

	"hybridndp/internal/fault"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

// denyGate denies admission to a fixed set of devices and records the
// release discipline of the admitted shards.
type denyGate struct {
	deny     map[int]bool
	admitted []int
	released int
	okAll    bool
	okBy     map[int]bool // release outcome per admitted device
}

func (g *denyGate) AdmitShard(dev int, memBytes int64, estNs float64) (func(ok bool, busyNs float64), bool) {
	if g.deny[dev] {
		return nil, false
	}
	g.admitted = append(g.admitted, dev)
	return func(ok bool, busyNs float64) {
		g.released++
		g.okAll = g.okAll && ok
		if g.okBy == nil {
			g.okBy = make(map[int]bool)
		}
		g.okBy[dev] = ok
	}, true
}

// deviceQuery returns the first JOB query the optimizer decides to run with
// device participation (hybrid or NDP), plus its decision.
func deviceQuery(t *testing.T, opt *optimizer.Optimizer) *optimizer.Decision {
	t.Helper()
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		if d.Hybrid || d.NDP {
			return d
		}
	}
	t.Skip("no JOB query decided device-mode at this scale")
	return nil
}

// TestDegradedShardMatchesFullFleet runs one device-mode query over a
// 4-device fleet twice — unconstrained, and with one device denied admission
// — and requires the degraded run to report the degradation while producing
// the byte-identical result (partial-fleet degradation must never change an
// answer).
func TestDegradedShardMatchesFullFleet(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d := deviceQuery(t, opt)

	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	if err := desc.Validate(ds.Cat); err != nil {
		t.Fatal(err)
	}
	a, err := PlanShards(opt, desc, d)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode == ModeHost {
		t.Fatalf("device-mode decision planned as host fleet assignment")
	}
	if len(a.Shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(a.Shards))
	}

	full := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	full.Metrics = obs.NewRegistry()
	fullRep, err := full.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if fullRep.DegradedShards != 0 {
		t.Fatalf("ungated run degraded %d shards", fullRep.DegradedShards)
	}
	// Fleet-launched devices carry the executor's registry like cooperative
	// ones do.
	for _, name := range []string{"device.scan.rows", "device.scan.bytes", "device.batches"} {
		if full.Metrics.Counter(name).Value() <= 0 {
			t.Fatalf("device-mode fleet run recorded no %s", name)
		}
	}

	gate := &denyGate{deny: map[int]bool{1: true}, okAll: true}
	deg := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	deg.Gate = gate
	degRep, err := deg.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if degRep.DegradedShards < 1 {
		t.Fatal("denied shard not reported as degraded")
	}
	if !degRep.Shards[1].Degraded {
		t.Fatal("shard 1 not marked degraded")
	}
	if got, want := Fingerprint(degRep.Result), Fingerprint(fullRep.Result); got != want {
		t.Fatalf("degraded fleet changed the result: %s != %s", got, want)
	}
	if gate.released != len(gate.admitted) {
		t.Fatalf("released %d of %d admitted shards", gate.released, len(gate.admitted))
	}
	if !gate.okAll {
		t.Fatal("an admitted shard released with ok=false on a clean run")
	}
}

// TestAllShardsDeniedStillAnswers degrades the whole fleet to host execution.
func TestAllShardsDeniedStillAnswers(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d := deviceQuery(t, opt)
	desc, err := Build(ds.Cat, 2, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlanShards(opt, desc, d)
	if err != nil {
		t.Fatal(err)
	}

	free := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	want, err := free.Run(a)
	if err != nil {
		t.Fatal(err)
	}

	x := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	x.Gate = &denyGate{deny: map[int]bool{0: true, 1: true}}
	rep, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	devShards := 0
	for _, sp := range a.Shards {
		if !(a.Mode == ModeHybrid && sp.Split == 0) {
			devShards++
		}
	}
	if rep.DegradedShards != devShards {
		t.Fatalf("degraded %d shards, want %d", rep.DegradedShards, devShards)
	}
	if got := Fingerprint(rep.Result); got != Fingerprint(want.Result) {
		t.Fatal("fully degraded fleet changed the result")
	}
	if rep.Batches != 0 {
		t.Fatalf("fully degraded run still transferred %d batches", rep.Batches)
	}
}

// TestSingleDeviceShardPlanMirrorsGlobalDecision pins the N=1 planning
// invariant: with one device holding the full driving table (frac = 1), the
// shard-local split re-derivation must reproduce the optimizer's global
// split exactly.
func TestSingleDeviceShardPlanMirrorsGlobalDecision(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	desc, err := Build(ds.Cat, 1, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Hybrid || d.Split == 0 {
			continue
		}
		a, err := PlanShards(opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mode != ModeHybrid {
			t.Fatalf("%s: mode %s, want hybrid", q.Name, a.Mode)
		}
		if a.Shards[0].Frac != 1 {
			t.Fatalf("%s: single-device frac %v, want 1", q.Name, a.Shards[0].Frac)
		}
		if a.Shards[0].Split != d.Split {
			t.Fatalf("%s: shard split H%d, global decision H%d", q.Name, a.Shards[0].Split, d.Split)
		}
	}
}

// TestHedgeFingerprintUnchanged is the hedging correctness gate: for every
// JOB query, a 4-device fleet run with aggressive hedging (threshold far
// below every shard's elapsed, so backups launch fleet-wide) produces a
// result fingerprint byte-identical to the unhedged run. Hedge wins consume
// the host backup's rows, hedge losses the device's — either way the merged
// stream must be the same stream.
func TestHedgeFingerprintUnchanged(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	hedged := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	hedged.Hedge = HedgeConfig{Enabled: true, Mult: 0.001}

	fired, won, lost := 0, 0, 0
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := PlanShards(opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		base, err := plain.Run(a)
		if err != nil {
			t.Fatalf("%s: plain: %v", q.Name, err)
		}
		rep, err := hedged.Run(a)
		if err != nil {
			t.Fatalf("%s: hedged: %v", q.Name, err)
		}
		if got, want := Fingerprint(rep.Result), Fingerprint(base.Result); got != want {
			t.Fatalf("%s: hedged fingerprint %s != unhedged %s", q.Name, got, want)
		}
		fired += rep.HedgesFired
		won += rep.HedgesWon
		lost += rep.HedgesLost
		if rep.HedgesFired != rep.HedgesWon+rep.HedgesLost {
			t.Fatalf("%s: hedge accounting fired=%d won=%d lost=%d", q.Name, rep.HedgesFired, rep.HedgesWon, rep.HedgesLost)
		}
	}
	if fired == 0 {
		t.Fatal("aggressive hedge config fired no hedges across the suite")
	}
	if won == 0 || lost == 0 {
		t.Fatalf("hedge suite should exercise both outcomes: won=%d lost=%d (fired=%d)", won, lost, fired)
	}
}

// TestDeadlineDegradesShards pins mid-gather deadline propagation: a deadline
// tighter than any device shard's elapsed degrades every device-side shard to
// host execution at its merge position, the report says so, and the result is
// unchanged.
func TestDeadlineDegradesShards(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d := deviceQuery(t, opt)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlanShards(opt, desc, d)
	if err != nil {
		t.Fatal(err)
	}
	x := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	base, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.RunTraced(a, nil, vclock.Duration(1)) // 1ns: nothing device-side can finish
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineDegraded == 0 {
		t.Fatalf("1ns deadline degraded no shards: %+v", rep)
	}
	if got, want := Fingerprint(rep.Result), Fingerprint(base.Result); got != want {
		t.Fatalf("deadline-degraded fingerprint %s != baseline %s", got, want)
	}
	// A roomy deadline changes nothing.
	loose, err := x.RunTraced(a, nil, base.Elapsed*1000)
	if err != nil {
		t.Fatal(err)
	}
	if loose.DeadlineDegraded != 0 {
		t.Fatalf("roomy deadline still degraded %d shards", loose.DeadlineDegraded)
	}
	if loose.Elapsed != base.Elapsed {
		t.Fatalf("roomy deadline changed elapsed: %v != %v", loose.Elapsed, base.Elapsed)
	}
}

// TestFleetChaosFingerprintUnchanged injects a device-scoped crash and
// interconnect corruption into a 4-device fleet run: the crashed shard and
// every corrupt batch re-run host-side, the report accounts them, and the
// answer never changes.
func TestFleetChaosFingerprintUnchanged(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d := deviceQuery(t, opt)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlanShards(opt, desc, d)
	if err != nil {
		t.Fatal(err)
	}
	clean := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	base, err := clean.Run(a)
	if err != nil {
		t.Fatal(err)
	}

	pl, err := fault.Parse("dev1:dev.crash@batch=0,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	x := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	x.Faults = pl
	rep, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashedShards != 1 || !rep.Shards[1].Crashed {
		t.Fatalf("scoped crash accounting: %+v", rep)
	}
	for i, sr := range rep.Shards {
		if i != 1 && sr.Crashed {
			t.Fatalf("crash leaked to device %d", i)
		}
	}
	if got := Fingerprint(rep.Result); got != Fingerprint(base.Result) {
		t.Fatal("crashed fleet changed the result")
	}

	pl2, err := fault.Parse("xfer.corrupt=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	x2 := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	x2.Faults = pl2
	rep2, err := x2.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Batches > 0 && rep2.CorruptBatches == 0 {
		t.Fatalf("xfer.corrupt=1 corrupted nothing across %d batches", rep2.Batches)
	}
	if got := Fingerprint(rep2.Result); got != Fingerprint(base.Result) {
		t.Fatal("corrupt transfers changed the result")
	}
}

// TestCrashedShardReleasesFailure pins what a shard reports to its admission
// gate (and through it to the device's circuit breaker): a shard whose
// command crashed releases ok=false, every healthy sibling ok=true.
func TestCrashedShardReleasesFailure(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d := deviceQuery(t, opt)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlanShards(opt, desc, d)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := fault.Parse("dev1:dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	gate := &denyGate{}
	x := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	x.Faults = pl
	x.Gate = gate
	rep, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Shards[1].Crashed {
		t.Fatalf("dev1:dev.crash=1 did not crash shard 1: %+v", rep.Shards[1])
	}
	if gate.released != len(gate.admitted) {
		t.Fatalf("released %d of %d admitted shards", gate.released, len(gate.admitted))
	}
	for _, dev := range gate.admitted {
		if got, want := gate.okBy[dev], dev != 1; got != want {
			t.Errorf("device %d released ok=%v, want %v", dev, got, want)
		}
	}
}

// maxShardElapsed reports the slowest shard's device time.
func maxShardElapsed(r *Report) vclock.Duration {
	var m vclock.Duration
	for _, sr := range r.Shards {
		if sr.Elapsed > m {
			m = sr.Elapsed
		}
	}
	return m
}

// TestFleetShrinksPerDeviceWork is the scale-out premise: with the split
// point held fixed, each of four devices runs the device-side PQEP over a
// quarter of the driving table, so the slowest shard finishes sooner than the
// single device that holds all of it.
func TestFleetShrinksPerDeviceWork(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d, err := opt.Decide(job.QueryByName("1b"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hybrid {
		t.Skipf("1b decided %s at this scale, not hybrid", d.StrategyLabel())
	}
	run := func(devices int) (*Assignment, *Report) {
		desc, err := Build(ds.Cat, devices, SchemeRange)
		if err != nil {
			t.Fatal(err)
		}
		a, err := PlanShards(opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewExecutor(ds.Cat, ds.DB, ds.Model, desc).Run(a)
		if err != nil {
			t.Fatal(err)
		}
		return a, rep
	}
	a1, one := run(1)
	a4, four := run(4)
	if a1.Label() != a4.Label() {
		t.Skipf("shard-local planning moved the split (%s → %s); per-device work is not comparable", a1.Label(), a4.Label())
	}
	if m1, m4 := maxShardElapsed(one), maxShardElapsed(four); m4 >= m1 {
		t.Fatalf("slowest of 4 shards (%v) should be under the single device (%v)", m4, m1)
	}
}

// TestReportAggregationInvariants pins how a fleet report adds up on an
// ungated, fault-free run at every fleet size: one ShardReport per device,
// the shards' batches sum to the report's, and their partitions tile the
// driving table's.
func TestReportAggregationInvariants(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	d := deviceQuery(t, opt)
	for _, devices := range []int{1, 2, 4, 8} {
		desc, err := Build(ds.Cat, devices, SchemeRange)
		if err != nil {
			t.Fatal(err)
		}
		a, err := PlanShards(opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewExecutor(ds.Cat, ds.DB, ds.Model, desc).Run(a)
		if err != nil {
			t.Fatalf("x%d: %v", devices, err)
		}
		if rep.Devices != devices || len(rep.Shards) != devices {
			t.Fatalf("x%d: Devices=%d with %d shard reports", devices, rep.Devices, len(rep.Shards))
		}
		batches, parts := 0, 0
		for _, sr := range rep.Shards {
			batches += sr.Batches
			parts += sr.Partitions
		}
		if batches != rep.Batches {
			t.Fatalf("x%d: shards shipped %d batches, report says %d", devices, batches, rep.Batches)
		}
		if parts != len(a.DrivingParts) {
			t.Fatalf("x%d: shards cover %d partitions, driving table has %d", devices, parts, len(a.DrivingParts))
		}
		if rep.DegradedShards+rep.CrashedShards+rep.CorruptBatches+rep.DeadlineDegraded+rep.HedgesFired != 0 {
			t.Fatalf("x%d: clean run reports demotions: %+v", devices, rep)
		}
	}
}
