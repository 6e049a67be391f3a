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

func (g *denyGate) AdmitShard(dev int) (func(ok bool, busyNs float64), bool) {
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

// counted reads a counter of x's registry.
func counted(x *Executor, name string) int { return int(x.Metrics.Counter(name).Value()) }

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
	if degRep.DegradedShards != 1 || degRep.Shards[1].Account != nil {
		t.Fatalf("%d shards degraded, shard 1's device account %v; want shard 1 alone kept off its device",
			degRep.DegradedShards, degRep.Shards[1].Account)
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
	x.Metrics = obs.NewRegistry()
	rep, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedShards != 2 {
		t.Fatalf("degraded %d shards, want the fleet's 2", rep.DegradedShards)
	}
	if got := Fingerprint(rep.Result); got != Fingerprint(want.Result) {
		t.Fatal("fully degraded fleet changed the result")
	}
	if n := counted(x, "device.batches"); n != 0 {
		t.Fatalf("fully degraded run still shipped %d device batches", n)
	}
}

// TestSingleDeviceShardPlanMirrorsGlobalDecision pins the N=1 planning
// invariant: with one device holding the full driving table (share 1), the
// fleet's split re-derivation must reproduce the optimizer's global split
// exactly.
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
		// One device holds the whole driving table: its share of the
		// host-native estimate is all of it.
		if a.EstHostNs != d.Costs.HostTotal {
			t.Fatalf("%s: single-device host estimate %v, want the plan's %v", q.Name, a.EstHostNs, d.Costs.HostTotal)
		}
		if a.Split != d.Split {
			t.Fatalf("%s: fleet split H%d, global decision H%d", q.Name, a.Split, d.Split)
		}
	}
}

// TestHedgeFingerprintUnchanged is the hedging correctness gate: for every
// JOB query, a 4-device fleet run whose every device stalls 2ms per batch
// (so hedges fire fleet-wide) produces a result fingerprint byte-identical
// to the unhedged, fault-free run. Hedge wins consume the host backup's
// rows, hedge losses the device's — either way the merged stream must be the
// same stream, and the suite must see plenty of both outcomes.
func TestHedgeFingerprintUnchanged(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	hedged := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
	hedged.Hedge = HedgeConfig{Enabled: true}
	hedged.Metrics = obs.NewRegistry()
	count := func(name string) int { return int(hedged.Metrics.Counter(name).Value()) }
	if hedged.Faults, err = fault.Parse("dev.stall=2ms"); err != nil {
		t.Fatal(err)
	}

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
	}
	fired, won, lost := count("fleet.hedge.fired"), count("fleet.hedge.won"), count("fleet.hedge.lost")
	t.Logf("hedges fired %d, won %d, lost %d", fired, won, lost)
	if fired != won+lost {
		t.Fatalf("hedge accounting fired=%d won=%d lost=%d", fired, won, lost)
	}
	if won < 154 || lost < 1 {
		t.Fatalf("hedge suite should exercise both outcomes: won=%d (want ≥ 154) lost=%d (want ≥ 1), fired=%d", won, lost, fired)
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
	x.Metrics = obs.NewRegistry()
	rep, err := x.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if n := counted(x, "fleet.shard.crashed"); n != 1 {
		t.Fatalf("dev1-scoped crash crashed %d shards, want 1", n)
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
	x2.Metrics = obs.NewRegistry()
	rep2, err := x2.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if n := counted(x2, "device.batches"); n > 0 && counted(x2, "fleet.batch.corrupt") == 0 {
		t.Fatalf("xfer.corrupt=1 corrupted nothing across %d batches", n)
	}
	if got := Fingerprint(rep2.Result); got != Fingerprint(base.Result) {
		t.Fatal("corrupt transfers changed the result")
	}
}

// TestFleetRollbackFingerprintUnchanged reaches the gather's mid-partition
// rollback, which the one-query chaos test above cannot (its query ships one
// batch per driving partition): with 1 KiB shared-buffer slots a driving
// partition of several device-mode JOB queries (13d, 17a, 25b, 32b, ...)
// ships several batches, and a corrupt batch after the first abandons the
// partition's already-merged rows before it re-runs host-side whole. Every
// query must still return the fault-free fleet's answer.
func TestFleetRollbackFingerprintUnchanged(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	small := ds.Model
	small.SharedBufferSlot = 1 << 10
	pl, err := fault.Parse("slot.corrupt=0.05,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	clean := NewExecutor(ds.Cat, ds.DB, small, desc)
	x := NewExecutor(ds.Cat, ds.DB, small, desc)
	x.Faults = pl
	x.Metrics = obs.NewRegistry()
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Hybrid && !d.NDP {
			continue
		}
		a, err := PlanShards(opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		base, err := clean.Run(a)
		if err != nil {
			t.Fatalf("%s: clean: %v", q.Name, err)
		}
		rep, err := x.Run(a)
		if err != nil {
			t.Fatalf("%s: corrupt: %v", q.Name, err)
		}
		if got, want := Fingerprint(rep.Result), Fingerprint(base.Result); got != want {
			t.Fatalf("%s: corrupt-slot fingerprint %s != fault-free %s", q.Name, got, want)
		}
	}
	if counted(x, "fleet.batch.corrupt") == 0 {
		t.Fatal("slot.corrupt=0.05 corrupted no shard across the device-mode queries")
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
	x.Metrics = obs.NewRegistry()
	if _, err := x.Run(a); err != nil {
		t.Fatal(err)
	}
	if n := counted(x, "fleet.shard.crashed"); n != 1 {
		t.Fatalf("dev1:dev.crash=1 crashed %d shards, want 1", n)
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
		t.Skipf("fleet deepening moved the split (%s → %s); per-device work is not comparable", a1.Label(), a4.Label())
	}
	if m1, m4 := maxShardElapsed(one), maxShardElapsed(four); m4 >= m1 {
		t.Fatalf("slowest of 4 shards (%v) should be under the single device (%v)", m4, m1)
	}
}

// TestReportAggregationInvariants pins how a fleet report adds up on an
// ungated, fault-free run at every fleet size: one ShardReport per device,
// and no demotion tallied or counted. (That the shards'
// partitions tile the driving table is TestBuildCoversEveryTableExactlyOnce.)
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
		x := NewExecutor(ds.Cat, ds.DB, ds.Model, desc)
		x.Metrics = obs.NewRegistry()
		rep, err := x.Run(a)
		if err != nil {
			t.Fatalf("x%d: %v", devices, err)
		}
		if len(rep.Shards) != devices {
			t.Fatalf("x%d: %d shard reports", devices, len(rep.Shards))
		}
		for _, c := range []string{"fleet.shard.crashed", "fleet.batch.corrupt", "fleet.deadline.degraded", "fleet.hedge.won"} {
			if n := counted(x, c); n != 0 {
				t.Fatalf("x%d: clean run counted %s %d times", devices, c, n)
			}
		}
		if rep.DegradedShards+rep.DeadlineDegraded != 0 {
			t.Fatalf("x%d: clean run tallies demotions: %+v", devices, rep)
		}
	}
}
