package harness

import (
	"fmt"
	"io"
	"math"

	"hybridndp/internal/coop"
	"hybridndp/internal/fleet"
	"hybridndp/internal/job"
	"hybridndp/internal/par"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// FleetCell is one query's execution at one fleet size.
type FleetCell struct {
	Elapsed vclock.Duration
	Match   bool // result fingerprint equals the single-device baseline
	Err     error
}

// FleetRow is one query across the swept fleet sizes.
type FleetRow struct {
	Query    string
	Strategy string      // single-device optimizer decision
	BaseFP   string      // baseline result fingerprint
	Cells    []FleetCell // indexed like the swept fleet sizes
	Err      error
}

// FleetResult aggregates a fleet scale-out sweep.
type FleetResult struct {
	Errors     int
	Mismatches int
	// Speedup holds the geometric-mean elapsed speedup of each fleet size
	// over the first count, across device-mode (non-host) queries.
	Speedup []float64
}

// Clean reports a sweep with zero errors and zero result mismatches — the
// fleet's correctness gate: every query at every fleet size must return the
// single-device answer byte for byte.
func (r *FleetResult) Clean() bool { return r.Errors == 0 && r.Mismatches == 0 }

// FleetSweep regenerates the Fig. 12-style scale-out experiment with device
// count as the x-axis: every JOB query executes through scatter-gather fleet
// execution at each fleet size, and every result is fingerprint-checked
// against a single-device cooperative execution of the optimizer's decided
// strategy. Descriptors and split points derive only from the dataset's
// statistics, and the merge consumes shards in partition order, so the sweep
// table is byte-identical across worker counts, interleavings and repeated
// seeded runs.
func (h *H) FleetSweep(w io.Writer, counts []int, spec string) (*FleetResult, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	execs := make([]*fleet.Executor, len(counts))
	for i, n := range counts {
		desc, err := fleet.Build(h.DS.Cat, n, spec)
		if err != nil {
			return nil, err
		}
		if err := desc.Validate(h.DS.Cat); err != nil {
			return nil, fmt.Errorf("fleet descriptor (devices=%d): %w", n, err)
		}
		execs[i] = fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc)
	}

	qs := job.Queries()
	rows := make([]FleetRow, len(qs))
	par.ForEach(h.Workers, len(qs), func(i int) {
		rows[i] = h.fleetOne(qs[i], counts, execs)
	})

	res := &FleetResult{}
	header(w, fmt.Sprintf("Fleet scale-out sweep (spec=%s, devices %v)", spec, counts))
	fmt.Fprintf(w, "%-5s %-7s", "query", "strat")
	for _, n := range counts {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("%d-dev", n))
	}
	fmt.Fprintln(w)
	logSum := make([]float64, len(counts))
	nDev := 0
	for _, r := range rows {
		if r.Err != nil {
			res.Errors++
			fmt.Fprintf(w, "%-5s %-7s ERROR %v\n", r.Query, r.Strategy, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-5s %-7s", r.Query, r.Strategy)
		rowOK := true
		for _, c := range r.Cells {
			if c.Err != nil {
				res.Errors++
				rowOK = false
				fmt.Fprintf(w, " %12s", "ERROR")
				continue
			}
			mark := ""
			if !c.Match {
				res.Mismatches++
				rowOK = false
				mark = "!"
			}
			fmt.Fprintf(w, " %11.2f%s", c.Elapsed.Milliseconds(), markOr(mark, " "))
		}
		if rowOK && r.Strategy != "host" {
			nDev++
			for i, c := range r.Cells {
				logSum[i] += math.Log(float64(r.Cells[0].Elapsed) / float64(c.Elapsed))
			}
		}
		fmt.Fprintln(w)
	}
	res.Speedup = make([]float64, len(counts))
	for i := range counts {
		if nDev > 0 {
			res.Speedup[i] = math.Exp(logSum[i] / float64(nDev))
		} else {
			res.Speedup[i] = 1
		}
	}
	fmt.Fprintf(w, "\ngeomean speedup vs %d-dev (device-mode queries):", counts[0])
	for i, n := range counts {
		fmt.Fprintf(w, " %d-dev=%.2fx", n, res.Speedup[i])
	}
	fmt.Fprintf(w, "\n%d queries: %d errors, %d result mismatches\n", len(rows), res.Errors, res.Mismatches)
	return res, nil
}

// markOr returns mark when non-empty, else the fallback.
func markOr(mark, fallback string) string {
	if mark != "" {
		return mark
	}
	return fallback
}

// fleetOne runs one query's single-device baseline and every fleet size.
func (h *H) fleetOne(q *query.Query, counts []int, execs []*fleet.Executor) FleetRow {
	row := FleetRow{Query: q.Name}
	d, err := h.Opt.Decide(q)
	if err != nil {
		row.Err = err
		return row
	}
	row.Strategy = d.StrategyLabel()
	base, err := h.Exec.Run(d.Plan, coop.DecisionStrategy(d))
	if err != nil {
		row.Err = fmt.Errorf("baseline: %w", err)
		return row
	}
	row.BaseFP = fleet.Fingerprint(base.Result)
	row.Cells = make([]FleetCell, len(counts))
	for i, x := range execs {
		cell := &row.Cells[i]
		a, err := fleet.PlanShards(h.Opt, x.Desc, d)
		if err != nil {
			cell.Err = err
			continue
		}
		rep, err := x.Run(a)
		if err != nil {
			cell.Err = err
			continue
		}
		cell.Elapsed = rep.Elapsed
		cell.Match = fleet.Fingerprint(rep.Result) == row.BaseFP
	}
	return row
}
