// Package core is the hybridNDP controller — the paper's primary
// contribution assembled into one component: given a query it computes the
// QEP split points through the cost model, decides host-only / full NDP /
// hybrid-Hk automatically (no hard-coding, no optimizer hints), executes the
// choice through the cooperative executor, and records estimate-vs-measured
// feedback. The feedback log powers the decision-quality analysis of paper
// Exp 3 and an optional calibration loop that nudges the row-evaluation-cost
// parameter (usr_rec, Table 1) toward observed reality.
package core

import (
	"fmt"
	"sort"
	"sync"

	"hybridndp/internal/coop"
	"hybridndp/internal/cost"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Controller drives automated offloading decisions and their execution.
type Controller struct {
	Opt  *optimizer.Optimizer
	Exec *coop.Executor

	// Feedback enables the calibration loop: after every run, the cost
	// model's usr_rec parameter is nudged by the measured/estimated ratio
	// (bounded, exponentially smoothed), so systematic over- or
	// under-estimation decays across a session.
	Feedback bool

	mu   sync.Mutex
	runs []RunRecord // guarded by mu
}

// New assembles a controller over a catalog.
func New(cat *table.Catalog, db *kv.DB, m hw.Model) *Controller {
	return &Controller{
		Opt:  optimizer.New(cat, m),
		Exec: coop.NewExecutor(cat, db, m),
	}
}

// RunRecord is one executed decision with its estimate-vs-measured outcome.
type RunRecord struct {
	Query     string
	Strategy  coop.Strategy
	Estimated float64 // cost-model estimate for the chosen strategy, virtual ns
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

// estimateFor reads the cost model's estimate for the chosen strategy out of
// the decision's cost picture.
func estimateFor(d *optimizer.Decision) float64 {
	sc := d.Costs
	switch {
	case d.Hybrid:
		if d.Split >= 0 && d.Split < len(sc.HybridEst) {
			return sc.HybridEst[d.Split]
		}
		return sc.HybridEst[0]
	case d.NDP:
		return sc.NDPTotal
	default:
		return sc.HostTotal
	}
}

// Run decides and executes one query, recording the outcome.
func (c *Controller) Run(q *query.Query) (*coop.Report, *optimizer.Decision, error) {
	d, err := c.Opt.Decide(q)
	if err != nil {
		return nil, nil, err
	}
	st := coop.DecisionStrategy(d)
	rep, err := c.Exec.Run(d.Plan, st)
	if err != nil && st.Kind != coop.HostNative {
		// Device-side failures (e.g. memory plan rejected at execution time)
		// fall back to the traditional host-only strategy, as the paper's
		// preconditions mandate.
		st = coop.Strategy{Kind: coop.HostNative}
		rep, err = c.Exec.Run(d.Plan, st)
	}
	if err != nil {
		return nil, nil, err
	}
	rec := RunRecord{
		Query:     q.Name,
		Strategy:  st,
		Estimated: estimateFor(d),
		Measured:  rep.Elapsed,
		Reason:    d.Reason,
	}
	c.mu.Lock()
	c.runs = append(c.runs, rec)
	c.mu.Unlock()
	if c.Feedback {
		c.applyFeedback(rec)
	}
	return rep, d, nil
}

// feedback smoothing: usr_rec moves at most ±20% per run, smoothed by 1/4.
const (
	feedbackGainCap = 0.2
	feedbackSmooth  = 0.25
)

// applyFeedback nudges the cost model's row-evaluation cost toward the
// observed estimate error. The update goes through the estimator's atomic
// parameter hook so concurrent runs neither race nor lose adjustments.
func (c *Controller) applyFeedback(rec RunRecord) {
	ratio := rec.Ratio()
	gain := (ratio - 1) * feedbackSmooth
	if gain > feedbackGainCap {
		gain = feedbackGainCap
	}
	if gain < -feedbackGainCap {
		gain = -feedbackGainCap
	}
	c.Opt.Est.UpdateParams(func(p cost.Params) cost.Params {
		p.UsrRec *= 1 + gain
		if p.UsrRec < 1 {
			p.UsrRec = 1
		}
		return p
	})
}

// Runs returns a copy of the recorded run log.
func (c *Controller) Runs() []RunRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RunRecord(nil), c.runs...)
}

// QualityReport summarizes estimate accuracy over the recorded runs (the
// session-level analogue of paper Exp 3).
type QualityReport struct {
	Runs        int
	MedianRatio float64 // measured/estimated, 1 = perfect
	P90Ratio    float64
	ByStrategy  map[string]int
}

// Quality computes the report.
func (c *Controller) Quality() QualityReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	qr := QualityReport{Runs: len(c.runs), ByStrategy: map[string]int{}}
	if len(c.runs) == 0 {
		return qr
	}
	ratios := make([]float64, 0, len(c.runs))
	for _, r := range c.runs {
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
