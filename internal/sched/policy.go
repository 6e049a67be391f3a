package sched

import (
	"sort"
	"sync"

	"hybridndp/internal/coop"
	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/optimizer"
)

// Policy selects how the scheduler places queries.
type Policy int

const (
	// Adaptive is the hybridNDP serving mode: per query the optimizer's
	// unloaded decision is the starting point, but the split is re-costed
	// against the ledger — device backlog inflates the device part, host
	// backlog inflates the host part — and saturated devices degrade the
	// query to a cheaper split or to host-native execution instead of
	// queueing behind the fleet.
	Adaptive Policy = iota
	// ForceHost routes everything host-native (the always-host baseline).
	ForceHost
	// ForceNDP offloads every feasible plan fully, serializing on device
	// command slots (the always-NDP baseline).
	ForceNDP
)

func (p Policy) String() string {
	switch p {
	case Adaptive:
		return "adaptive"
	case ForceHost:
		return "host"
	case ForceNDP:
		return "ndp"
	}
	return "Policy(?)"
}

// candidate is one admissible execution alternative with its cost parts.
type candidate struct {
	strat     coop.Strategy
	claim     Claim
	devNs     float64 // device-side estimated work (corrected)
	rawDevNs  float64 // device-side estimate straight from the cost model
	hostNs    float64 // host-side estimated work (corrected)
	rawHostNs float64 // host-side estimate (host part + transfer) from the model
	transNs   float64 // interconnect transfer estimate (corrected)
	loaded    float64 // end-to-end estimate under the current ledger load
	risky     bool    // device placement lacks per-query evidence (see below)
}

// onDevice reports whether the candidate occupies device resources.
func (c candidate) onDevice() bool { return c.strat.Kind != coop.HostNative }

// candidates enumerates every admissible strategy for the decided query with
// its cost decomposition: host-native, every device-memory-feasible hybrid
// split Hk, and full NDP. Host-native is always present, so the admission
// walk below terminates.
//
// Estimates are corrected in two stages: per-query per-pool factors learned
// from this query's previous executions (serving workloads repeat, and
// cardinality misestimates — the dominant error — are query-specific),
// falling back to the fleet-wide device calibration factor for device parts
// of queries never seen on a device. All are observed actual/estimate
// ratios; without them a single join-explosion query mispriced 100× would
// keep being placed onto the slow device pool.
func (s *Scheduler) candidates(d *optimizer.Decision) []candidate {
	sc := d.Costs
	p := d.Plan
	devC := s.calib.deviceFactor()
	hostC := 1.0
	qd, qh := s.hist.factors(queryKey(p))
	if qd > 0 {
		devC = qd
	} else if qh > 0 {
		// The query is known to be mispriced on the host; until a device run
		// proves otherwise, assume the device part is off by at least as much
		// — cardinality errors hit both pools.
		devC = maxF(devC, qh)
	}
	if qh > 0 {
		hostC = qh
	}
	// Device placement is risky until this query has produced evidence: a
	// measured device factor, or a host factor small enough to vouch for the
	// model's cardinalities. One join-explosion query estimated at 1 ms that
	// actually busies the device for seconds would dominate the fleet's
	// makespan — the single host lane it would have occupied is 1/HostCores
	// of the host pool, but the device pool may be a single execution core.
	// The adaptive policy therefore runs first-sight queries host-native and
	// offloads once the measured factors bound the downside; the forced-NDP
	// baseline ignores the flag.
	risky := qd == 0 && (qh == 0 || qh > deviceRiskCap)
	out := []candidate{{
		strat:     coop.Strategy{Kind: coop.HostNative},
		hostNs:    sc.HostTotal * hostC,
		rawHostNs: sc.HostTotal,
	}}
	for k := range sc.CNode {
		splitAfter := k
		if k == 0 {
			splitAfter = -1
		}
		mp := device.PlanMemory(s.model, p, splitAfter)
		if !mp.Fits() {
			continue
		}
		split := k
		if k == 0 {
			split = -1
		}
		devNs := sc.DevPart[k] * devC
		out = append(out, candidate{
			strat:     coop.Strategy{Kind: coop.Hybrid, Split: split},
			claim:     Claim{MemBytes: mp.TotalBytes, BufSlots: 1, EstDeviceNs: devNs},
			devNs:     devNs,
			rawDevNs:  sc.DevPart[k],
			hostNs:    sc.HostPart[k] * hostC,
			rawHostNs: sc.HostPart[k] + sc.Trans[k],
			transNs:   sc.Trans[k] * hostC,
			risky:     risky,
		})
	}
	if mp := device.PlanMemory(s.model, p, len(p.Steps)); mp.Fits() {
		devNs := sc.NDPTotal * devC
		out = append(out, candidate{
			strat:    coop.Strategy{Kind: coop.NDPOnly},
			claim:    Claim{MemBytes: mp.TotalBytes, BufSlots: 1, EstDeviceNs: devNs},
			devNs:    devNs,
			rawDevNs: sc.NDPTotal,
			risky:    risky,
		})
	}
	return out
}

// deviceRiskCap bounds the host-factor a query may have while its device
// factor is unknown and still be considered for offloading: beyond it the
// cardinality estimate is so wrong that the device-side downside is unbounded.
const deviceRiskCap = 10

// calibration tracks the observed ratio between measured device busy time
// and the cost model's estimate as an exponentially weighted moving average.
// It is the scheduler-level analog of the paper's recalibration feedback:
// instead of adjusting a rate parameter, it rescales whole device-side
// estimates so placement decisions stay honest under model error.
type calibration struct {
	mu  sync.Mutex
	dev float64 // EWMA of actual/estimate for device-side work; guarded by mu
}

const (
	calibAlpha = 0.3
	calibMin   = 0.1
	calibMax   = 30
)

func (c *calibration) deviceFactor() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dev == 0 {
		return 1
	}
	return c.dev
}

func (c *calibration) observeDevice(actual, estimate float64) {
	if estimate <= 0 || actual <= 0 {
		return
	}
	r := actual / estimate
	if r < calibMin {
		r = calibMin
	} else if r > calibMax {
		r = calibMax
	}
	c.mu.Lock()
	if c.dev == 0 {
		c.dev = r
	} else {
		c.dev = (1-calibAlpha)*c.dev + calibAlpha*r
	}
	c.mu.Unlock()
}

// queryKey identifies a query across submissions for the per-query history.
func queryKey(p *exec.Plan) string {
	if p.Query != nil && p.Query.Name != "" {
		return p.Query.Name
	}
	return ""
}

// history remembers each query's observed actual/estimate ratios, separately
// per pool. Cardinality misestimates are per-query and can be orders of
// magnitude (a join explosion the optimizer did not predict) — and crucially
// they can hit the two pools differently, so a single shared factor would
// preserve the model's wrong device-vs-host ratio and keep offloading a
// device-hostile query. A host run teaches the host cost, a device run
// teaches the device cost; a repeat submission uses whatever has been
// learned and the model (plus fleet calibration) for the rest.
type history struct {
	mu sync.Mutex
	m  map[string]*qhist // guarded by mu
}

// qhist is one query's learned correction factors (0 = not yet observed).
type qhist struct {
	dev  float64
	host float64
}

const (
	histAlpha = 0.5
	histMin   = 0.01
	histMax   = 1000
)

// factors returns the learned (device, host) corrections, 0 when unseen.
func (h *history) factors(key string) (dev, host float64) {
	if key == "" {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if q, ok := h.m[key]; ok {
		return q.dev, q.host
	}
	return 0, 0
}

// observe folds a run's measured pool times into the query's factors. A part
// the strategy did not exercise (estimate 0) teaches nothing about that pool.
func (h *history) observe(key string, devActual, devEst, hostActual, hostEst float64) {
	if key == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	q, ok := h.m[key]
	if !ok {
		q = &qhist{}
		h.m[key] = q
	}
	q.dev = fold(q.dev, devActual, devEst)
	q.host = fold(q.host, hostActual, hostEst)
}

func fold(prev, actual, est float64) float64 {
	if est <= 0 || actual <= 0 {
		return prev
	}
	r := actual / est
	if r < histMin {
		r = histMin
	} else if r > histMax {
		r = histMax
	}
	if prev == 0 {
		return r
	}
	return (1-histAlpha)*prev + histAlpha*r
}

// rank computes every candidate's loaded estimate under the current ledger
// state and sorts ascending. The loaded estimate extends the paper's overlap
// model (HybridEst = max(dev, host) + trans) with the contention terms: the
// target device's cumulative assigned work delays the device part, the
// per-lane assigned host work delays the host part. On an idle system the
// terms are zero and the ranking reproduces the optimizer's unloaded choice;
// under load this is greedy list-scheduling across the two pools — a split
// that is optimal on an idle device drifts toward H0, and eventually to
// host-native, as the device pool's assigned work catches up with the
// host's. This is the "c_target under contention" re-costing of DESIGN.md.
func rank(cands []candidate, ld Load) []candidate {
	for i := range cands {
		c := &cands[i]
		// A candidate pays a pool's backlog only on pools it actually uses:
		// a full-NDP run does not wait for the host pool to drain, and a
		// host-native run does not wait for the device.
		var dev, host float64
		if c.onDevice() {
			dev = ld.DeviceAssignedNs + c.devNs
		}
		if c.hostNs > 0 || !c.onDevice() {
			host = ld.HostAssignedNs + c.hostNs
		}
		c.loaded = maxF(dev, host) + c.transNs
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].loaded < cands[j].loaded })
	return cands
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
