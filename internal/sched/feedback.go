package sched

import (
	"sort"
	"sync"

	"hybridndp/internal/coop"
	"hybridndp/internal/cost"
	"hybridndp/internal/hw"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

// feedback is the estimate-feedback store, one per scheduler: per query and
// per pool (device, host) the observed ratio of measured busy time to the
// cost model's estimate, with a fleet-wide device ratio as the fallback for
// queries never seen on a device. Cardinality misestimates — the dominant
// error — are per query, can be orders of magnitude (a join explosion the
// optimizer did not predict) and can hit the two pools differently, so one
// shared factor would preserve the model's wrong device-vs-host ratio. A host
// run teaches the host factor, a device run the device factor; pricing uses
// whatever has been learned and the model for the rest. Safe for concurrent
// use.
type feedback struct {
	mu      sync.Mutex
	device  float64             // fleet-wide EWMA of device actual/estimate; guarded by mu
	byQuery map[string]*factors // guarded by mu
}

// factors is one query's learned actual/estimate ratios (0 = not yet seen).
type factors struct{ dev, host float64 }

// newFeedback returns an empty store.
func newFeedback() *feedback { return &feedback{byQuery: map[string]*factors{}} }

// Smoothing and clamps of the two EWMAs.
const (
	fleetAlpha, fleetMin, fleetMax = 0.3, 0.1, 30
	queryAlpha, queryMin, queryMax = 0.5, 0.01, 1000
)

func fold(prev, actual, est, alpha, lo, hi float64) float64 {
	if est <= 0 || actual <= 0 {
		return prev
	}
	r := min(max(actual/est, lo), hi)
	if prev == 0 {
		return r
	}
	return (1-alpha)*prev + alpha*r
}

// price is the end-to-end estimate of s under correction factors: the cost
// model's quote, the device part scaled by the device pool's factor and the
// host part and the transfer it drives by the host pool's.
func price(sc *cost.SplitCosts, s coop.Strategy, devF, hostF float64) float64 {
	dev, host, trans := sc.Quote(s.Kind, s.Split)
	return cost.Overlap(dev*devF, host*hostF, trans*hostF)
}

// deviceRiskCap bounds the host factor a query may have while its device
// factor is unknown and still be trusted on a device: beyond it the
// cardinality estimate is so wrong that the device-side downside is unbounded.
const deviceRiskCap = 10

// factorsFor returns the correction factors to price query name with. A query
// known to be mispriced on the host but never seen on a device is assumed to
// be off by at least as much there — cardinality errors hit both pools.
//
// trusted reports that the device-side price rests on evidence: a measured
// device factor, or a host factor small enough to vouch for the model's
// cardinalities. One join-explosion query estimated at 1 ms that actually
// busies the device for seconds would dominate the makespan — the host lane
// it would have occupied is 1/HostCores of the host pool, but the device pool
// may be a single execution core.
func (f *feedback) factorsFor(name string) (devF, hostF float64, trusted bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	devF, hostF = 1, 1
	if f.device > 0 {
		devF = f.device
	}
	if q := f.byQuery[name]; q != nil {
		if q.host > 0 {
			hostF = q.host
			devF = max(devF, q.host)
			trusted = q.host <= deviceRiskCap
		}
		if q.dev > 0 {
			devF = q.dev
			trusted = true
		}
	}
	return devF, hostF, trusted
}

// deviceFactor reports the fleet-wide device actual/estimate ratio (1 before
// any device run was observed).
func (f *feedback) deviceFactor() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.device == 0 {
		return 1
	}
	return f.device
}

// observe folds one finished run into the store: the measured per-pool busy
// times against the model's raw parts teach the query's factors (a pool the
// strategy did not exercise teaches nothing) and the fleet-wide device ratio.
func (f *feedback) observe(d *optimizer.Decision, s coop.Strategy, rep *coop.Report) {
	dev, host, trans := d.Costs.Quote(s.Kind, s.Split)
	devBusy, hostBusy := float64(accountBusy(rep.DeviceAccount)), float64(hostBusy(rep.Elapsed, rep.HostAccount))
	name := queryKey(d)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.device = fold(f.device, devBusy, dev, fleetAlpha, fleetMin, fleetMax)
	if name != "" {
		q := f.byQuery[name]
		if q == nil {
			q = &factors{}
			f.byQuery[name] = q
		}
		q.dev = fold(q.dev, devBusy, dev, queryAlpha, queryMin, queryMax)
		q.host = fold(q.host, hostBusy, host+trans, queryAlpha, queryMin, queryMax)
	}
}

// queryKey identifies a query across submissions.
func queryKey(d *optimizer.Decision) string {
	if d.Plan.Query != nil {
		return d.Plan.Query.Name
	}
	return ""
}

// hostBusy extracts the host's busy (non-stall) virtual time from a run's
// elapsed time and host account. Fault-recovery waits (host waiting out a
// crashed device attempt, retry backoff) are stalls, not load.
func hostBusy(elapsed vclock.Duration, acc map[string]vclock.Duration) vclock.Duration {
	return max(0, elapsed-acc[hw.CatWaitInitial]-acc[hw.CatWaitFetch]-acc[hw.CatFaultWait]-acc[hw.CatBackoff])
}

// accountBusy adds in category order: float addition does not associate, and
// map order would let the last bit of the sum — and with it a learned factor
// and a placement tie — differ from run to run.
func accountBusy(account map[string]vclock.Duration) vclock.Duration {
	cats := make([]string, 0, len(account))
	for cat := range account {
		if cat != hw.CatWaitSlots && cat != hw.CatNDPSetup {
			cats = append(cats, cat)
		}
	}
	sort.Strings(cats)
	var busy vclock.Duration
	for _, cat := range cats {
		busy += account[cat]
	}
	return busy
}
