package harness

import (
	"fmt"
	"io"

	"hybridndp/internal/coop"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/query"
)

// TraceReport bundles one traced execution: its span trace and the
// paper-phase profile derived from the timeline accounts.
type TraceReport struct {
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
	return &TraceReport{Trace: tr, Profile: rep.Profile()}, nil
}

// TraceQuery runs the named JOB query under the given strategy label
// (native, block, ndp, H0, H1, ...) with tracing; an empty label uses the
// optimizer's decided strategy. It is the backing of `jobbench -trace`.
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
