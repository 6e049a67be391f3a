package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/vclock"
)

// Fig2 reproduces the introductory experiment (paper Fig. 2): JOB Q8.c under
// host-only, the obvious leaf offload H0, the non-obvious interior split,
// and full NDP. Expected shape: full NDP worst, an interior split best.
func (h *H) Fig2(w io.Writer) ([]Measurement, error) {
	msr, _, err := h.SweepStrategies(job.QueryByName("8c"))
	if err != nil {
		return nil, err
	}
	header(w, "Fig 2 — introductory experiment, JOB Q8.c")
	var keep []Measurement
	bestHybrid, _ := BestHybrid(msr)
	for _, m := range msr {
		label := m.Strategy.String()
		switch {
		case m.Strategy.Kind == coop.HostNative:
			label = "host-only"
		case m.Strategy.Kind == coop.NDPOnly:
			label = "full NDP"
		case m.Strategy.Kind == coop.Hybrid && m.Strategy.Split == -1:
			label = "H0"
		case m.Strategy == bestHybrid.Strategy:
			label = m.Strategy.String() + " (best split)"
		case m.Strategy.Kind == coop.BlockOnly:
			continue
		default:
			continue
		}
		fmt.Fprintf(w, "  %-18s %s\n", label, ms(m.Elapsed))
		keep = append(keep, m)
	}
	return keep, nil
}

// Fig11Row is one stack bar of Exp 1.
type Fig11Row struct {
	Query  string
	Stack  string
	Time   vclock.Duration
	Hybrid coop.Strategy
}

// Fig11 reproduces Exp 1: Q8.c, Q17.b, Q32.b on BLK, NATIVE, NDP and
// hybridNDP (best split). Expected: hybridNDP outperforms every baseline;
// full NDP is sub-optimal for 8c/32b.
func (h *H) Fig11(w io.Writer) ([]Fig11Row, error) {
	header(w, "Fig 11 — Exp 1: stacks on Q8.c, Q17.b, Q32.b")
	var rows []Fig11Row
	for _, name := range []string{"8c", "17b", "32b"} {
		msr, _, err := h.SweepStrategies(job.QueryByName(name))
		if err != nil {
			return nil, err
		}
		blk, _ := ByKind(msr, coop.BlockOnly)
		nat, _ := ByKind(msr, coop.HostNative)
		ndp, _ := ByKind(msr, coop.NDPOnly)
		hyb, ok := BestHybrid(msr)
		if !ok {
			return nil, fmt.Errorf("no hybrid measurement for %s", name)
		}
		rows = append(rows,
			Fig11Row{name, "BLK", blk.Elapsed, coop.Strategy{}},
			Fig11Row{name, "NATIVE", nat.Elapsed, coop.Strategy{}},
			Fig11Row{name, "NDP", ndp.Elapsed, coop.Strategy{}},
			Fig11Row{name, "hybridNDP", hyb.Elapsed, hyb.Strategy},
		)
		fmt.Fprintf(w, "  Q%-4s BLK %s  NATIVE %s  NDP %s  hybridNDP %s (%s)\n",
			name, ms(blk.Elapsed), ms(nat.Elapsed), ms(ndp.Elapsed), ms(hyb.Elapsed), hyb.Strategy)
	}
	return rows, nil
}

// Table3Row correlates intermediate-result volume and execution time for one
// split of Q17.b (paper Table 3).
type Table3Row struct {
	Split        string
	Intermediate int64 // rows crossing the interconnect
	Bytes        int64
	Time         vclock.Duration
}

// Table3 reproduces the Exp 1 correlation table for JOB Q17.b.
func (h *H) Table3(w io.Writer) ([]Table3Row, error) {
	q := job.QueryByName("17b")
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	header(w, "Table 3 — Q17.b: intermediate results vs execution time")
	var rows []Table3Row
	splits := []int{-1}
	for k := 1; k <= len(p.Steps); k++ {
		splits = append(splits, k)
	}
	for _, k := range splits {
		rep, err := h.Exec.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: k})
		if err != nil {
			return nil, err
		}
		var interRows int64
		for _, ev := range rep.Timeline {
			interRows += int64(ev.Rows)
		}
		r := Table3Row{
			Split:        rep.Strategy.String(),
			Intermediate: interRows,
			Bytes:        rep.TransferredBytes,
			Time:         rep.Elapsed,
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "  %-4s intermediate=%9d rows %10d B  time=%s\n",
			r.Split, r.Intermediate, r.Bytes, ms(r.Time))
	}
	return rows, nil
}

// Fig12Row is one query of the full JOB sweep (Exp 2).
type Fig12Row struct {
	Query       string
	Block       vclock.Duration
	BestHybrid  vclock.Duration
	BestSplit   string
	NDP         vclock.Duration
	Improvement float64 // percent vs block; positive = hybrid faster
	Class       string  // "win", "par", "loss"
	BestOverall string  // strategy label of the fastest execution
}

// onParTolerance classifies |improvement| below this percentage as "on par".
const onParTolerance = 5.0

// Fig12 reproduces Exp 2: all 113 JOB queries under host-only, every hybrid
// split and full NDP. Expected: hybridNDP wins or ties roughly half the
// queries; full NDP is the best choice only in a small fraction.
func (h *H) Fig12(w io.Writer) ([]Fig12Row, error) {
	qs := job.Queries()
	header(w, "Fig 12 — Exp 2: full JOB sweep (improvement vs host-only/BLK, %)")
	var rows []Fig12Row
	wins, pars := 0, 0
	ndpBest, h0Best := 0, 0
	sweeps := h.SweepParallel(qs)
	for qi, q := range qs {
		msr, err := sweeps[qi].Msr, sweeps[qi].Err
		if err != nil {
			return nil, err
		}
		blk, okB := ByKind(msr, coop.BlockOnly)
		hyb, okH := BestHybrid(msr)
		ndp, _ := ByKind(msr, coop.NDPOnly)
		if !okB || !okH {
			continue
		}
		impr := 100 * (float64(blk.Elapsed) - float64(hyb.Elapsed)) / float64(blk.Elapsed)
		class := "loss"
		switch {
		case impr > onParTolerance:
			class = "win"
			wins++
		case impr >= -onParTolerance:
			class = "par"
			pars++
		}
		best, _ := Best(msr)
		switch {
		case best.Strategy.Kind == coop.NDPOnly:
			ndpBest++
		case best.Strategy.Kind == coop.Hybrid && best.Strategy.Split == -1:
			h0Best++
		}
		rows = append(rows, Fig12Row{
			Query: q.Name, Block: blk.Elapsed, BestHybrid: hyb.Elapsed,
			BestSplit: hyb.Strategy.String(), NDP: ndp.Elapsed,
			Improvement: impr, Class: class, BestOverall: best.Strategy.String(),
		})
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-5s blk=%s hybrid=%s (%s) ndp=%s  %+6.1f%% [%s]\n",
			r.Query, ms(r.Block), ms(r.BestHybrid), r.BestSplit, ms(r.NDP), r.Improvement, r.Class)
	}
	n := len(rows)
	fmt.Fprintf(w, "  => hybrid wins %d/%d (%.1f%%), on par %d (%.1f%%), win+par %.1f%% (paper: ~47%%)\n",
		wins, n, pct(wins, n), pars, pct(pars, n), pct(wins+pars, n))
	fmt.Fprintf(w, "  => full-NDP best in %.1f%% (paper: 1.7%%), leaf-only H0 best in %.1f%% (paper: 7%%)\n",
		pct(ndpBest, n), pct(h0Best, n))
	return rows, nil
}

func pct(a, n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(a) / float64(n)
}

// Fig13Row is the optimizer-decision quality for one query (Exp 3).
type Fig13Row struct {
	Query    string
	Decision string
	Oracle   string
	// Class: "best" (decision matches the measured optimum), "acceptable"
	// (within 10% of the optimum), "miss".
	Class string
}

// Fig13 reproduces Exp 3: the cost model's decisions against the Exp 2
// oracle. Expected: best ≈ 20%, acceptable ≈ 12%, suitable total ≈ 32%.
func (h *H) Fig13(w io.Writer) ([]Fig13Row, error) {
	header(w, "Fig 13 — Exp 3: optimizer decision quality")
	var rows []Fig13Row
	best, acceptable := 0, 0
	qs := job.Queries()
	// Re-measure every strategy against the oracle; the sweeps dominate the
	// wall-clock cost and parallelize across queries.
	sweeps := h.SweepParallel(qs)
	for qi, q := range qs {
		d, err := h.Opt.Decide(q)
		if err != nil {
			return nil, err
		}
		msr, err := sweeps[qi].Msr, sweeps[qi].Err
		if err != nil {
			return nil, err
		}
		opt, ok := Best(msr)
		if !ok {
			continue
		}
		var decided Measurement
		found := false
		want := coop.DecisionStrategy(d)
		for _, m := range msr {
			if m.Err == nil && m.Strategy.Kind == want.Kind &&
				(want.Kind != coop.Hybrid || m.Strategy.Split == want.Split) {
				decided, found = m, true
			}
		}
		if !found {
			continue
		}
		class := "miss"
		switch {
		case decided.Strategy == opt.Strategy:
			class = "best"
			best++
		case float64(decided.Elapsed) <= 1.10*float64(opt.Elapsed):
			class = "acceptable"
			acceptable++
		}
		rows = append(rows, Fig13Row{
			Query: q.Name, Decision: d.StrategyLabel(),
			Oracle: opt.Strategy.String(), Class: class,
		})
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-5s decided=%-6s oracle=%-6s [%s]\n", r.Query, r.Decision, r.Oracle, r.Class)
	}
	n := len(rows)
	fmt.Fprintf(w, "  => best %.1f%% (paper: 20.35%%), acceptable %.1f%% (paper: 11.50%%), suitable %.1f%% (paper: 31.8%%)\n",
		pct(best, n), pct(acceptable, n), pct(best+acceptable, n))
	return rows, nil
}

// Fig14Row is one bar of Exp 4 (non-indexed 2-table join).
type Fig14Row struct {
	Projection string
	Stack      string
	Time       vclock.Duration
	Rows       int64
}

// listing2MaxID scales the paper's movie_link.id <= 10000 predicate (over
// ~30k rows) to the generated table size: one third of the table.
func (h *H) listing2MaxID() int32 {
	return int32(h.DS.Counts["movie_link"] / 3)
}

// Fig14 reproduces Exp 4: the Listing 2 query (2-table join on non-indexed
// columns, BNL forced) on BLK, NATIVE and NDP, for limited and full
// projection. Expected: NDP outperforms the baselines in both cases.
func (h *H) Fig14(w io.Writer) ([]Fig14Row, error) {
	header(w, "Fig 14 — Exp 4: non-indexed 2-table join (BNL on device)")
	var rows []Fig14Row
	for _, full := range []bool{false, true} {
		label := "limited"
		if full {
			label = "full"
		}
		q := job.Listing2(h.listing2MaxID(), full)
		p, err := h.Opt.BuildPlan(q)
		if err != nil {
			return nil, err
		}
		p = forceJoinTypes(p, 0 /* BNL */)
		for _, st := range []coop.Strategy{
			{Kind: coop.BlockOnly}, {Kind: coop.HostNative}, {Kind: coop.NDPOnly},
		} {
			rep, err := h.Exec.Run(p, st)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig14Row{label, st.String(), rep.Elapsed, rep.Result.RowCount})
			fmt.Fprintf(w, "  %-8s %-7s %s  (%d rows)\n", label, st, ms(rep.Elapsed), rep.Result.RowCount)
		}
	}
	return rows, nil
}

// Fig15Row is one bar of Exp 5 (in-situ index processing).
type Fig15Row struct {
	Projection string
	Variant    string // "host", "NDP BNL", "NDP BNLI"
	Time       vclock.Duration
}

// Fig15 reproduces Exp 5: the same query with the device join forced to BNL
// vs BNLI (on-device secondary-index processing), against the host engine.
// Expected: BNL is the device bottleneck; BNLI competes with the host.
func (h *H) Fig15(w io.Writer) ([]Fig15Row, error) {
	header(w, "Fig 15 — Exp 5: in-situ secondary-index processing")
	var rows []Fig15Row
	for _, full := range []bool{false, true} {
		label := "limited"
		if full {
			label = "full"
		}
		q := job.Listing2(h.listing2MaxID(), full)
		p, err := h.Opt.BuildPlan(q)
		if err != nil {
			return nil, err
		}
		// Exp 5 grants secondary indices to everyone: the host bar runs its
		// natural (indexed) plan, while the device compares scan-based BNL
		// against in-situ BNLI.
		host, err := h.Exec.Run(forceJoinTypes(p, 1), coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			return nil, err
		}
		bnl, err := h.Exec.Run(forceJoinTypes(p, 0), coop.Strategy{Kind: coop.NDPOnly})
		if err != nil {
			return nil, err
		}
		bnliPlan := forceJoinTypes(p, 1 /* BNLI */)
		bnli, err := h.Exec.Run(bnliPlan, coop.Strategy{Kind: coop.NDPOnly})
		if err != nil {
			return nil, err
		}
		if bnl.Result.RowCount != bnli.Result.RowCount || host.Result.RowCount != bnl.Result.RowCount {
			return nil, fmt.Errorf("fig15: result mismatch host=%d bnl=%d bnli=%d",
				host.Result.RowCount, bnl.Result.RowCount, bnli.Result.RowCount)
		}
		rows = append(rows,
			Fig15Row{label, "host", host.Elapsed},
			Fig15Row{label, "NDP BNL", bnl.Elapsed},
			Fig15Row{label, "NDP BNLI", bnli.Elapsed},
		)
		fmt.Fprintf(w, "  %-8s host %s  NDP-BNL %s  NDP-BNLI %s\n",
			label, ms(host.Elapsed), ms(bnl.Elapsed), ms(bnli.Elapsed))
	}
	return rows, nil
}

// Fig16 reproduces Exp 6: Q8.c forced through every split position
// (block-only, H0..Hn, NDP-only). Expected: a U-shape with an interior
// optimum (paper: H3 of 9 options).
func (h *H) Fig16(w io.Writer) ([]Measurement, error) {
	msr, p, err := h.SweepStrategies(job.QueryByName("8c"))
	if err != nil {
		return nil, err
	}
	header(w, fmt.Sprintf("Fig 16 — Exp 6: Q8.c split sweep (%d tables)", p.NumTables()))
	var out []Measurement
	for _, m := range msr {
		if m.Strategy.Kind == coop.HostNative {
			continue // the paper's figure shows block, H0..H6, NDP
		}
		fmt.Fprintf(w, "  %-7s %s\n", m.Strategy, ms(m.Elapsed))
		out = append(out, m)
	}
	if best, ok := Best(out); ok {
		fmt.Fprintf(w, "  => best: %s\n", best.Strategy)
	}
	return out, nil
}

// Fig17Result captures the co-processing timeline of Q8.d (Exp 6).
type Fig17Result struct {
	Split          coop.Strategy
	Report         *coop.Report
	HostBreakdown  []phase
	DevBreakdown   []phase
	HostWaitPct    float64
	DeviceTotalPct float64
}

type phase struct {
	Name    string
	Dur     vclock.Duration
	Percent float64
}

// Fig17Table4 reproduces the detailed Q8.d co-processing analysis: the
// paper's Fig. 17 batch timeline plus Table 4's host stage / device
// operation breakdowns. Expected: a visible initial host wait, near-zero
// further waits, and a device breakdown dominated by memcmp.
func (h *H) Fig17Table4(w io.Writer) (*Fig17Result, error) {
	q := job.QueryByName("8d")
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	// The paper analyses Q8.d at split H2 (its optimal co-processing point).
	strat := coop.Strategy{Kind: coop.Hybrid, Split: 2}
	if len(p.Steps) < 2 {
		strat.Split = len(p.Steps)
	}
	rep, err := h.Exec.Run(p, strat)
	if err != nil {
		return nil, err
	}
	res := &Fig17Result{Split: strat, Report: rep}

	header(w, fmt.Sprintf("Fig 17 / Table 4 — Exp 6: Q8.d co-processing at %s", strat))
	fmt.Fprintf(w, "  batch timeline (device ready → host fetched → host done):\n")
	for _, ev := range rep.Timeline {
		fmt.Fprintf(w, "    batch %2d: ready=%9.2fms fetched=%9.2fms done=%9.2fms rows=%d\n",
			ev.Idx, float64(ev.DeviceReady)/1e6, float64(ev.HostFetched)/1e6, float64(ev.HostDone)/1e6, ev.Rows)
	}

	hostStages := []struct{ label, cat string }{
		{"NDP setup (command)", hw.CatNDPSetup},
		{"Wait (initial device exec.)", hw.CatWaitInitial},
		{"Wait (2nd..nth device exec.)", hw.CatWaitFetch},
		{"Result transfer", hw.CatTransfer},
	}
	var hostTotal vclock.Duration
	for _, d := range rep.HostAccount {
		hostTotal += d
	}
	fmt.Fprintf(w, "  host stages:\n")
	var processing vclock.Duration = hostTotal
	for _, st := range hostStages {
		d := rep.HostAccount[st.cat]
		processing -= d
		pctv := 100 * float64(d) / math.Max(float64(hostTotal), 1)
		res.HostBreakdown = append(res.HostBreakdown, phase{st.label, d, pctv})
		fmt.Fprintf(w, "    %-30s %s  %5.2f%%\n", st.label, ms(d), pctv)
	}
	pctv := 100 * float64(processing) / math.Max(float64(hostTotal), 1)
	res.HostBreakdown = append(res.HostBreakdown, phase{"Processing", processing, pctv})
	fmt.Fprintf(w, "    %-30s %s  %5.2f%%\n", "Processing", ms(processing), pctv)
	res.HostWaitPct = 100 * float64(rep.HostAccount[hw.CatWaitInitial]+rep.HostAccount[hw.CatWaitFetch]) /
		math.Max(float64(hostTotal), 1)

	fmt.Fprintf(w, "  device operations:\n")
	var devTotal vclock.Duration
	for _, d := range rep.DeviceAccount {
		devTotal += d
	}
	type kv struct {
		k string
		v vclock.Duration
	}
	var devs []kv
	for k, v := range rep.DeviceAccount {
		devs = append(devs, kv{k, v})
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].v > devs[j].v })
	for _, e := range devs {
		pctv := 100 * float64(e.v) / math.Max(float64(devTotal), 1)
		res.DevBreakdown = append(res.DevBreakdown, phase{e.k, e.v, pctv})
		fmt.Fprintf(w, "    %-30s %s  %5.2f%%\n", e.k, ms(e.v), pctv)
	}
	return res, nil
}

// Calibration runs the hardware profiler and reports the CoreMark-equivalent
// host/device compute ratio (paper §5: 92343 vs 2964 it/s ≈ 31×).
func (h *H) Calibration(w io.Writer) hw.ProfileResult {
	p := hw.Profiler{Base: h.DS.Model, Quick: true}
	res := p.Run()
	header(w, "Setup — profiler calibration")
	res.Report(w)
	fmt.Fprintf(w, "  compute ratio host/device: %.1f (paper: %.1f)\n",
		res.Model.ComputeRatio(), 92343.0/2964.0)
	return res
}
