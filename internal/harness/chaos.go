package harness

import (
	"fmt"
	"io"

	"hybridndp/internal/coop"
	"hybridndp/internal/fault"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/par"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// ChaosRow is one query's outcome in a fault-injected sweep: the decided
// strategy ran under the fault plan, and its result is checked against a
// fault-free host-native execution of the same plan.
type ChaosRow struct {
	Query    string
	Strategy string
	// Retries / FellBack mirror the report's recovery outcome.
	Retries  int
	FellBack bool
	// Fingerprint / BaseFingerprint are fleet.Fingerprint of the two results.
	// Every JOB query returns one aggregate row, so only the values can tell
	// a lost row.
	Fingerprint     string
	BaseFingerprint string
	Elapsed         vclock.Duration
	Err             error
}

// Match reports whether the chaos run reproduced the baseline's result.
func (r ChaosRow) Match() bool { return r.Err == nil && r.Fingerprint == r.BaseFingerprint }

// ChaosResult aggregates a chaos sweep.
type ChaosResult struct {
	Errors     int
	Mismatches int
	Retries    int
	Fallbacks  int
}

// Clean reports a sweep with zero query errors and zero result mismatches —
// the recovery path's correctness gate: whatever the fault plan does to the
// device, every query must still return the host-native answer.
func (r *ChaosResult) Clean() bool { return r.Errors == 0 && r.Mismatches == 0 }

// ChaosSweep executes every JOB query under its optimizer-decided strategy
// with the fault plan active and verifies each result against a fault-free
// host-native baseline. The sweep is deterministic for a given dataset seed
// and fault spec — injectors are keyed per query+strategy, so worker count
// and interleaving cannot perturb any run's fault episode — and the printed
// table is byte-identical across repetitions.
func (h *H) ChaosSweep(w io.Writer, plan *fault.Plan) *ChaosResult {
	qs := job.Queries()
	rows := make([]ChaosRow, len(qs))
	prevFaults := h.Exec.Faults
	h.Exec.Faults = plan
	defer func() { h.Exec.Faults = prevFaults }()
	par.ForEach(h.Workers, len(qs), func(i int) {
		rows[i] = h.chaosOne(qs[i])
	})

	res := &ChaosResult{}
	header(w, fmt.Sprintf("Chaos sweep (faults: %s)", plan.String()))
	for _, r := range rows {
		if r.Err != nil {
			res.Errors++
			fmt.Fprintf(w, "%-5s %-7s ERROR %v\n", r.Query, r.Strategy, r.Err)
			continue
		}
		res.Retries += r.Retries
		mark := ""
		if r.FellBack {
			res.Fallbacks++
			mark = " fallback=host"
		}
		if !r.Match() {
			res.Mismatches++
			mark += fmt.Sprintf(" MISMATCH fp=%s base-fp=%s", r.Fingerprint, r.BaseFingerprint)
		}
		fmt.Fprintf(w, "%-5s %-7s %s retries=%d%s\n",
			r.Query, r.Strategy, ms(r.Elapsed), r.Retries, mark)
	}
	fmt.Fprintf(w, "\n%d queries: %d errors, %d mismatches, %d retries, %d host fallbacks\n",
		len(rows), res.Errors, res.Mismatches, res.Retries, res.Fallbacks)
	return res
}

// chaosOne runs one query's baseline and chaos execution.
func (h *H) chaosOne(q *query.Query) ChaosRow {
	row := ChaosRow{Query: q.Name}
	d, err := h.Opt.Decide(q)
	if err != nil {
		row.Err = err
		return row
	}
	s := coop.DecisionStrategy(d)
	row.Strategy = s.String()
	// The host-native path never consults the fault plan (the device is the
	// unreliable component), so the baseline is fault-free by construction.
	base, err := h.Exec.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		row.Err = fmt.Errorf("baseline: %w", err)
		return row
	}
	row.BaseFingerprint = fleet.Fingerprint(base.Result)
	rep, err := h.Exec.Run(d.Plan, s)
	if err != nil {
		row.Err = err
		return row
	}
	row.Fingerprint = fleet.Fingerprint(rep.Result)
	row.Retries = rep.FaultRetries
	row.FellBack = rep.FellBack
	row.Elapsed = rep.Elapsed
	return row
}
