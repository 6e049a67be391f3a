package harness

import (
	"context"
	"fmt"
	"io"

	"hybridndp/internal/job"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/vclock"
)

// ServingRow is one (policy, concurrency) cell of the serving experiment.
type ServingRow struct {
	Completed int64
	Degraded  int64
	// Makespan and Throughput are virtual-time figures (see sched.Stats):
	// the makespan is the instant the last query completed, so the numbers
	// are deterministic and independent of the machine running the simulation.
	Makespan   vclock.Duration
	Throughput float64
	HostBusy   vclock.Duration
	DeviceBusy vclock.Duration
}

// ServingMix is the default workload of the serving experiment: every JOB
// query in the suite, repeated so the fleet sees sustained load.
func ServingMix(repeat int) []*query.Query {
	if repeat < 1 {
		repeat = 1
	}
	qs := job.Queries()
	out := make([]*query.Query, 0, repeat*len(qs))
	for r := 0; r < repeat; r++ {
		out = append(out, qs...)
	}
	return out
}

// ServingSweep is the throughput-vs-concurrency experiment of the scheduler:
// the same JOB mix is replayed through the adaptive policy and the two forced
// baselines at each concurrency level. The always-host baseline leaves the
// device idle and queues on the host's CPU lanes; the always-NDP baseline
// serializes on the device's single command slot; the adaptive policy takes
// the earliest completion under load and degrades saturated queries toward
// the host, keeping both pools busy — at high concurrency it beats both. The
// whole sweep runs on virtual time, so its text is byte-identical from run to
// run. The rows follow the levels and, within each level, the policies in
// that order: always-host, always-NDP, adaptive.
func (h *H) ServingSweep(w io.Writer, levels []int) ([]ServingRow, error) {
	if len(levels) == 0 {
		levels = []int{1, 4, 16, 64}
	}
	mix := ServingMix(3)
	header(w, "Serving — throughput vs concurrency, JOB mix")
	fmt.Fprintf(w, "  %-9s %-6s %10s %9s %9s %12s %14s\n",
		"policy", "conc", "completed", "degraded", "makespan", "throughput", "dev/host busy")
	var rows []ServingRow
	for _, c := range levels {
		for _, pol := range []sched.Policy{sched.ForceHost, sched.ForceNDP, sched.Adaptive} {
			st, err := h.serveOnce(pol, c, mix)
			if err != nil {
				return nil, err
			}
			row := ServingRow{
				Completed:  st.Completed,
				Degraded:   st.Degraded,
				Makespan:   st.Makespan,
				Throughput: st.Throughput(),
				HostBusy:   st.HostBusy,
				DeviceBusy: st.DeviceBusy,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "  %-9s %-6d %10d %9d %s %9.2f q/s %s /%s\n",
				pol, c, row.Completed, row.Degraded, ms(row.Makespan), row.Throughput,
				ms(row.DeviceBusy), ms(row.HostBusy))
		}
	}
	return rows, nil
}

// serveOnce replays the mix through one scheduler configuration and returns
// its drained stats.
func (h *H) serveOnce(pol sched.Policy, workers int, mix []*query.Query) (sched.Stats, error) {
	cfg := sched.DefaultConfig()
	cfg.Policy = pol
	cfg.Workers = workers
	cfg.QueueDepth = 2 * len(mix)
	s := sched.New(h.Opt, h.Exec, h.DS.Model, cfg)
	for i, q := range mix {
		if _, err := s.Submit(context.Background(), q, sched.Priority(i%3)); err != nil {
			s.Close()
			return sched.Stats{}, fmt.Errorf("serving submit %s: %w", q.Name, err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Errors > 0 {
		return st, fmt.Errorf("serving run under %v/%d: %d queries failed", pol, workers, st.Errors)
	}
	return st, nil
}
