package sched

import (
	"fmt"
	"sort"
	"sync"

	"hybridndp/internal/coop"
	"hybridndp/internal/cost"
	"hybridndp/internal/hw"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

// Feedback is the one estimate-feedback store: per query and per pool (device,
// host) the observed ratio of measured busy time to the cost model's estimate,
// with a fleet-wide device ratio as the fallback for queries never seen on a
// device, plus the log of the runs it learned from. Cardinality misestimates —
// the dominant error — are per query, can be orders of magnitude (a join
// explosion the optimizer did not predict) and can hit the two pools
// differently, so one shared factor would preserve the model's wrong
// device-vs-host ratio. A host run teaches the host factor, a device run the
// device factor; pricing uses whatever has been learned and the model for the
// rest. Safe for concurrent use.
type Feedback struct {
	mu      sync.Mutex
	device  float64             // fleet-wide EWMA of device actual/estimate; guarded by mu
	byQuery map[string]*factors // guarded by mu
	runs    []RunRecord         // guarded by mu
}

// factors is one query's learned actual/estimate ratios (0 = not yet seen).
type factors struct{ dev, host float64 }

// NewFeedback returns an empty store.
func NewFeedback() *Feedback { return &Feedback{byQuery: map[string]*factors{}} }

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

// RunRecord is one executed strategy with its estimate-vs-measured outcome.
type RunRecord struct {
	Query    string
	Strategy coop.Strategy
	// Estimated is the priced estimate for the strategy that ran — the cost
	// model's figure times the factors learned before the run — in virtual ns.
	Estimated float64
	Measured  vclock.Duration
	Reason    string
}

// Ratio is measured/estimated (1 = perfect).
func (r RunRecord) Ratio() float64 {
	if r.Estimated <= 0 {
		return 1
	}
	return float64(r.Measured) / r.Estimated
}

// parts splits the cost model's estimate for strategy s into the device pool's
// and the host pool's share (the host's includes the transfer it drives).
func parts(sc *cost.SplitCosts, s coop.Strategy) (dev, host, trans float64) {
	switch s.Kind {
	case coop.Hybrid:
		k := max(s.Split, 0)
		return sc.DevPart[k], sc.HostPart[k], sc.Trans[k]
	case coop.NDPOnly:
		return sc.NDPTotal, 0, 0
	}
	return 0, sc.HostTotal, 0
}

// price is the end-to-end estimate of s under correction factors: the paper's
// overlap model max(device part, host part) + transfer, each part scaled by
// its pool's factor.
func price(sc *cost.SplitCosts, s coop.Strategy, devF, hostF float64) float64 {
	dev, host, trans := parts(sc, s)
	return max(dev*devF, host*hostF) + trans*hostF
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
func (f *Feedback) factorsFor(name string) (devF, hostF float64, trusted bool) {
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

// DeviceFactor reports the fleet-wide device actual/estimate ratio (1 before
// any device run was observed).
func (f *Feedback) DeviceFactor() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.device == 0 {
		return 1
	}
	return f.device
}

// Price estimates the decided query's runtime under strategy s: the cost
// model's figure corrected by what the store has learned.
func (f *Feedback) Price(d *optimizer.Decision, s coop.Strategy) float64 {
	devF, hostF, _ := f.factorsFor(queryKey(d))
	return price(d.Costs, s, devF, hostF)
}

// Observe folds one finished run into the store: the measured per-pool busy
// times against the model's raw parts teach the query's factors (a pool the
// strategy did not exercise teaches nothing) and the fleet-wide device ratio,
// and the run is logged against est, the price quoted before it ran.
func (f *Feedback) Observe(d *optimizer.Decision, s coop.Strategy, est float64, rep *coop.Report) {
	dev, host, trans := parts(d.Costs, s)
	devBusy, hostBusy := float64(deviceBusy(rep)), float64(hostBusy(rep))
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
	f.runs = append(f.runs, RunRecord{Query: name, Strategy: s, Estimated: est, Measured: rep.Elapsed, Reason: d.Reason})
}

// queryKey identifies a query across submissions.
func queryKey(d *optimizer.Decision) string {
	if d.Plan.Query != nil {
		return d.Plan.Query.Name
	}
	return ""
}

// hostBusy extracts the host's busy (non-stall) virtual time from a report.
// Fault-recovery waits (host waiting out a crashed device attempt, retry
// backoff) are stalls, not load.
func hostBusy(r *coop.Report) vclock.Duration {
	return max(0, r.Elapsed-r.HostAccount[hw.CatWaitInitial]-r.HostAccount[hw.CatWaitFetch]-
		r.HostAccount[hw.CatFaultWait]-r.HostAccount[hw.CatBackoff])
}

// deviceBusy sums a device account's busy virtual time (setup rendezvous and
// slot stalls excluded).
func deviceBusy(r *coop.Report) vclock.Duration { return accountBusy(r.DeviceAccount) }

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

// Runs returns a copy of the run log.
func (f *Feedback) Runs() []RunRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]RunRecord(nil), f.runs...)
}

// QualityReport summarizes estimate accuracy over the logged runs (the
// session-level analogue of paper Exp 3).
type QualityReport struct {
	Runs        int
	MedianRatio float64 // measured/estimated, 1 = perfect
	P90Ratio    float64
	ByStrategy  map[string]int
}

// Quality computes the report.
func (f *Feedback) Quality() QualityReport {
	runs := f.Runs()
	qr := QualityReport{Runs: len(runs), ByStrategy: map[string]int{}}
	if len(runs) == 0 {
		return qr
	}
	ratios := make([]float64, 0, len(runs))
	for _, r := range runs {
		ratios = append(ratios, r.Ratio())
		qr.ByStrategy[r.Strategy.String()]++
	}
	sort.Float64s(ratios)
	qr.MedianRatio = ratios[len(ratios)/2]
	qr.P90Ratio = ratios[len(ratios)*9/10]
	return qr
}

func (qr QualityReport) String() string {
	return fmt.Sprintf("runs=%d median(measured/est)=%.2f p90=%.2f strategies=%v",
		qr.Runs, qr.MedianRatio, qr.P90Ratio, qr.ByStrategy)
}
