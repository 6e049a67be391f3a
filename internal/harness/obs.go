package harness

import (
	"fmt"
	"io"

	"hybridndp/internal/coop"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/query"
)

// TraceReport bundles one traced execution: the run report, its span trace and
// the paper-phase profile derived from the timeline accounts.
type TraceReport struct {
	Report  *coop.Report
	Trace   *obs.Trace
	Profile *obs.QueryProfile
}

// RunTraced plans the query and executes it under the strategy with span
// tracing enabled. The profile is checked against the trace's own invariant
// (phases partition the virtual runtime) by the caller via Profile.Reconciles.
func (h *H) RunTraced(q *query.Query, s coop.Strategy) (*TraceReport, error) {
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTrace(q.Name)
	rep, err := h.Exec.RunTraced(p, s, tr)
	if err != nil {
		return nil, err
	}
	return &TraceReport{Report: rep, Trace: tr, Profile: rep.Profile()}, nil
}

// TraceDecided runs the named JOB query under the optimizer's decided
// strategy with tracing. It is the backing of `jobbench -trace`.
func (h *H) TraceDecided(name string) (*TraceReport, error) {
	return h.TraceQuery(name, "")
}

// TraceQuery runs the named JOB query under the given strategy label
// (native, block, ndp, H0, H1, ...) with tracing; an empty label uses the
// optimizer's decided strategy.
func (h *H) TraceQuery(name, label string) (*TraceReport, error) {
	q := job.QueryByName(name)
	if q == nil {
		return nil, fmt.Errorf("harness: unknown JOB query %q", name)
	}
	if label != "" {
		s, err := coop.ParseStrategy(label)
		if err != nil {
			return nil, err
		}
		return h.RunTraced(q, s)
	}
	d, err := h.Opt.Decide(q)
	if err != nil {
		return nil, err
	}
	return h.RunTraced(q, coop.DecisionStrategy(d))
}

// BindMetrics attaches a registry to the harness's executor so every
// subsequent run records into it, and publishes the dataset's storage-level
// gauges. Returns the registry for chaining.
func (h *H) BindMetrics(reg *obs.Registry) *obs.Registry {
	h.Exec.Metrics = reg
	h.PublishStorage(reg)
	return reg
}

// PublishStorage mirrors the dataset's flash-module counters into gauges
// (cumulative device-internal I/O volume — the bytes the NDP path never moves
// across the interconnect).
func (h *H) PublishStorage(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := h.DS.DB.Flash().Stats()
	reg.Gauge("flash.bytes_read").SetInt(st.BytesRead)
	reg.Gauge("flash.bytes_written").SetInt(st.BytesWritten)
	reg.Gauge("flash.page_reads").SetInt(st.PageReads)
	reg.Gauge("flash.random_reads").SetInt(st.RandomReads)
	reg.Gauge("flash.files_live").SetInt(int64(st.FilesLive))
}

// ProfileWorkload runs every given query under its decided strategy with
// tracing and returns the per-query profiles plus the workload-level merge
// (where the mix's virtual time goes, in the paper's phase structure). A nil
// query list means all JOB queries.
func (h *H) ProfileWorkload(qs []*query.Query) ([]*obs.QueryProfile, *obs.QueryProfile, error) {
	if qs == nil {
		qs = job.Queries()
	}
	profiles := make([]*obs.QueryProfile, 0, len(qs))
	for _, q := range qs {
		tr, err := h.TraceDecided(q.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		profiles = append(profiles, tr.Profile)
	}
	return profiles, obs.MergeProfiles(profiles), nil
}

// WriteTrace writes the trace report as Chrome trace_event JSON followed by
// the flame and phase-profile text renderings on out.
func (tr *TraceReport) WriteTrace(jsonW, out io.Writer) error {
	if err := tr.Trace.WriteChromeTrace(jsonW, 1); err != nil {
		return err
	}
	if err := tr.Trace.WriteFlame(out); err != nil {
		return err
	}
	if err := tr.Profile.WriteText(out); err != nil {
		return err
	}
	if !tr.Profile.Reconciles() {
		return fmt.Errorf("harness: profile does not reconcile with the virtual runtime")
	}
	return nil
}
