package sched

import (
	"hybridndp/internal/coop"
	"hybridndp/internal/fleet"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

// live is the runner that executes for real: it offers host-native, every
// device-memory-feasible hybrid split Hk and full NDP, each priced by the cost
// model times what the feedback store has learned about the query, runs the
// chosen strategy through the cooperative executor (or the whole decision
// through the fleet executor) at dispatch, and hands back the measured
// elapsed time for the loop to book. Both executors recover injected device
// faults themselves; an error either returns surfaces on the ticket and is
// not re-run. Under the adaptive policy offloading is
// evidence-gated: a query's first execution stays on the host, where a
// misestimate costs one lane, and device alternatives are offered once its
// measured factors bound the downside.
type live struct {
	policy  Policy
	opt     *optimizer.Optimizer
	exec    *coop.Executor
	ledger  *Ledger
	fleet   *fleet.Executor
	gate    *fleetGate
	fb      *feedback
	metrics *obs.Registry
	traces  *obs.TraceSet
}

func newLive(opt *optimizer.Optimizer, exec *coop.Executor, l *Ledger, cfg Config) *live {
	r := &live{policy: cfg.Policy, opt: opt, exec: exec, ledger: l, fleet: cfg.Fleet,
		fb: newFeedback(), metrics: cfg.Metrics, traces: cfg.Traces}
	if fx := cfg.Fleet; fx != nil {
		r.gate = &fleetGate{l: l, m: cfg.Metrics}
		fx.Gate = r.gate
		if fx.Metrics == nil {
			fx.Metrics = cfg.Metrics
		}
		if fx.Hedge.Enabled && fx.Hedge.Scale == nil {
			// Hedge thresholds scale with the learned fleet-wide device
			// actual/estimate ratio, so a fleet whose devices run slower than
			// the model predicts does not hedge every shard.
			fx.Hedge.Scale = r.fb.deviceFactor
		}
	}
	return r
}

var hostNative = coop.Strategy{Kind: coop.HostNative}

// Candidates plans the ticket's query and prices its alternatives. A fleet
// run is one alternative on a host lane — the gather chain — whose shards
// take their pinned devices through the gate when it starts.
func (r *live) Candidates(t *Ticket, _ vclock.Time, buf []Candidate) ([]Candidate, error) {
	d, err := r.opt.Decide(t.query)
	if err != nil {
		return nil, err
	}
	t.decision = d
	sc, p := d.Costs, d.Plan
	devF, hostF, trusted := r.fb.factorsFor(queryKey(t.decision))
	buf = append(buf, Candidate{Strategy: hostNative, Service: vclock.Duration(price(sc, hostNative, devF, hostF))})
	if r.fleet != nil || (r.policy == Adaptive && !trusted) {
		return buf, nil
	}
	// Every split point Hk, then full NDP, which reserves the memory plan of
	// every join on the device: the decision's plans mask them all.
	offer := func(s coop.Strategy, k int) {
		if d.Mem[k].Fits() {
			buf = append(buf, Candidate{
				Strategy: s,
				Service:  vclock.Duration(price(sc, s, devF, hostF)),
			})
		}
	}
	for _, s := range coop.Splits(p) {
		offer(s, s.Split)
	}
	offer(coop.Strategy{Kind: coop.NDPOnly}, len(p.Steps))
	return buf, nil
}

// Run executes the placed ticket and writes what ran onto it.
func (r *live) Run(t *Ticket, c Candidate, ch Choice) (vclock.Duration, error) {
	tr := r.traces.New(t.query.Name)
	if r.fleet != nil {
		return r.runFleet(t, ch, tr)
	}
	m, d, o := r.metrics, t.decision, &t.outcome
	if ch.Dev >= 0 {
		m.Counter("sched.admit.device").Inc()
	} else {
		m.Counter("sched.admit.host").Inc()
	}
	if o.Degraded {
		m.Counter("sched.admit.degraded").Inc()
	}
	ran := c.Strategy
	rep, err := r.exec.RunDeadline(d.Plan, ran, tr, t.deadline.Exec)
	if ch.Dev >= 0 {
		// Feed the breaker: a command only counts as a device success when it
		// actually completed on the device — an executor-level host fallback
		// means the device failed every retry.
		r.ledger.Report(ch.Dev, err == nil && !rep.FellBack)
	}
	if err != nil {
		// The executor recovers every injected device fault itself; what
		// reaches here (a rejected memory plan, a bad split) is a bug to
		// surface on the ticket, not a device failure to hide.
		return 0, err
	}
	// True the estimates up with the measured busy times, so estimation error
	// cannot keep overloading a pool.
	dev, host, trans := d.Costs.Quote(ran.Kind, ran.Split)
	t.hostBusy, t.devBusy = hostBusy(rep.Elapsed, rep.HostAccount), accountBusy(rep.DeviceAccount)
	if dev > 0 {
		m.Histogram("sched.trueup.device.ratio", obs.DefaultRatioBuckets).Observe(float64(t.devBusy) / dev)
	}
	if host+trans > 0 {
		m.Histogram("sched.trueup.host.ratio", obs.DefaultRatioBuckets).Observe(float64(t.hostBusy) / (host + trans))
	}
	r.fb.observe(d, ran, rep)
	m.Gauge("sched.calib.device.factor").Set(r.fb.deviceFactor())
	return rep.Elapsed, nil
}

// runFleet executes one decided query over the sharded fleet: plan the
// fleet's one device command and scatter-gather through the fleet executor
// (shard admission runs against the ledger via the gate, as of the run's
// start instant). The fleet executor re-runs every failed shard's partitions
// host-side itself; an error it returns surfaces on the ticket.
func (r *live) runFleet(t *Ticket, ch Choice, tr *obs.Trace) (vclock.Duration, error) {
	m, d, o := r.metrics, t.decision, &t.outcome
	r.gate.at = ch.Start
	a, err := fleet.PlanShards(r.opt, r.fleet.Desc, d)
	if err != nil {
		return 0, err
	}
	frep, err := r.fleet.RunTraced(a, tr, t.deadline.Exec)
	if err != nil {
		return 0, err
	}
	o.Chosen = "fleet:" + a.Label()
	o.Degraded = frep.DegradedShards > 0 || frep.DeadlineDegraded > 0
	if o.Degraded {
		m.Counter("sched.fleet.degraded_runs").Inc()
	}
	m.Counter("sched.fleet.runs").Inc()
	for _, sr := range frep.Shards {
		t.devBusy += accountBusy(sr.Account)
	}
	t.hostBusy = hostBusy(frep.Elapsed, frep.HostAccount)
	return frep.Elapsed, nil
}

// fleetGate adapts the ledger to per-shard fleet admission: every device-side
// shard of a scatter-gather run takes its pinned device as of the run's start
// instant, holds it until that instant plus its device-busy time, and reports
// its outcome into that device's breaker. A denied shard degrades to host
// execution inside the fleet run instead of queueing — the partial-fleet
// degradation path.
type fleetGate struct {
	l  *Ledger
	m  *obs.Registry
	at vclock.Time // start instant of the run being admitted
}

func (g *fleetGate) AdmitShard(dev int) (func(ok bool, busyNs float64), bool) {
	at := g.at
	if !g.l.AdmitDevice(dev, at) {
		g.m.Counter("sched.fleet.shard.denied").Inc()
		return nil, false
	}
	g.m.Counter("sched.fleet.shard.admitted").Inc()
	return func(ok bool, busyNs float64) {
		g.l.ReleaseDevice(dev, at.Add(vclock.Duration(busyNs)), ok)
	}, true
}
