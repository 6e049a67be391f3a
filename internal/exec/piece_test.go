package exec_test

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/harness"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/par"
	"hybridndp/internal/vclock"
)

// lawRun is one execution of the chunking laws: a JOB query under one
// strategy, its result's fingerprint, its elapsed virtual time and every
// charge the run reports, durations as raw float64 bits.
type lawRun struct {
	query, strategy string
	fp              string
	elapsed         vclock.Duration
	charges         string
}

// bits renders a duration as its raw float64 bits: the laws ask for byte
// identity, not approximate equality.
func bits(d vclock.Duration) string { return fmt.Sprintf("%016x", math.Float64bits(float64(d))) }

// writeAccount appends one account's categories in sorted order.
func writeAccount(b *strings.Builder, side string, acct map[string]vclock.Duration) {
	keys := make([]string, 0, len(acct))
	for k := range acct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s.%s=%s", side, k, bits(acct[k]))
	}
}

func coopRun(rep *coop.Report) lawRun {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%s device=%s batches=%d bytes=%d",
		bits(rep.Elapsed), bits(rep.DeviceElapsed), rep.Batches, rep.TransferredBytes)
	writeAccount(&b, "host", rep.HostAccount)
	writeAccount(&b, "device", rep.DeviceAccount)
	return lawRun{rep.Query, rep.Strategy.String(), fleet.Fingerprint(rep.Result), rep.Elapsed, b.String()}
}

func fleetRun(rep *fleet.Report, devices int) lawRun {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%s batches=%d bytes=%d", bits(rep.Elapsed), rep.Batches, rep.TransferredBytes)
	writeAccount(&b, "host", rep.HostAccount)
	for i, sh := range rep.Shards {
		fmt.Fprintf(&b, " shard%d.elapsed=%s", i, bits(sh.Elapsed))
		writeAccount(&b, fmt.Sprintf("shard%d", i), sh.Account)
	}
	return lawRun{rep.Query, fmt.Sprintf("fleet%d", devices), fleet.Fingerprint(rep.Result), rep.Elapsed, b.String()}
}

// firstField names the first charge two renderings disagree on.
func firstField(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("%s, want %s", g[i], w[i])
		}
	}
	return fmt.Sprintf("%d charges, want %d", len(g), len(w))
}

// maxIntermediate reports the largest intermediate of p's join chain, run
// materialized on a host engine.
func maxIntermediate(t *testing.T, ds *job.Dataset, p *exec.Plan) int {
	e := &exec.Engine{Cat: ds.Cat, TL: vclock.NewTimeline("host"), R: hw.HostRates(ds.Model)}
	pl, err := e.StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.ScanAccess(pl, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := pl.MakeTuples(rows)
	most := len(tuples)
	for si := range p.Steps {
		if tuples, err = e.JoinStep(pl, si, tuples); err != nil {
			t.Fatal(err)
		}
		most = max(most, len(tuples))
	}
	return most
}

// lawRuns runs every JOB query block, host-native, full NDP and at every
// hybrid split on the cooperative executor, and under its decided strategy on
// a 1-device and a 4-device range fleet, at the current piece budget and
// batch size.
func lawRuns(t *testing.T, ds *job.Dataset, plans []*exec.Plan, decs []*optimizer.Decision) [][]lawRun {
	opt := optimizer.New(ds.Cat, ds.Model)
	x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	var fleets []*fleet.Executor
	for _, n := range []int{1, 4} {
		desc, err := fleet.Build(ds.Cat, n, fleet.SchemeRange)
		if err != nil {
			t.Fatal(err)
		}
		fleets = append(fleets, fleet.NewExecutor(ds.Cat, ds.DB, ds.Model, desc))
	}
	out := make([][]lawRun, len(plans))
	errs := make([]error, len(plans))
	par.ForEach(2, len(plans), func(i int) {
		p := plans[i]
		strategies := []coop.Strategy{{Kind: coop.BlockOnly}, {Kind: coop.HostNative}, {Kind: coop.NDPOnly}}
		if len(p.Steps) > 0 {
			strategies = append(strategies, coop.Splits(p)...)
		}
		for _, s := range strategies {
			rep, err := x.Run(p, s)
			if err != nil {
				errs[i] = fmt.Errorf("%s %s: %w", p.Query.Name, s, err)
				return
			}
			out[i] = append(out[i], coopRun(rep))
		}
		for _, fx := range fleets {
			a, err := fleet.PlanShards(opt, fx.Desc, decs[i])
			if err != nil {
				errs[i] = err
				return
			}
			rep, err := fx.Run(a)
			if err != nil {
				errs[i] = fmt.Errorf("%s fleet%d: %w", p.Query.Name, fx.Desc.Devices, err)
				return
			}
			out[i] = append(out[i], fleetRun(rep, fx.Desc.Devices))
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// tracedRun renders the traced 8d@H1 run: its Chrome JSON, flame and phase
// profile, as the golden trace surface does.
func tracedRun(t *testing.T, ds *job.Dataset) string {
	tr, err := harness.FromDataset(ds).TraceQuery("8d", "H1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPieceBudgetLaw holds both chunking constants' laws on the whole
// workload, every JOB query under every strategy (block, host-native, full
// NDP, each hybrid split, a 1- and a 4-device fleet):
//   - piece budget: at budgets of 1 and 7 tuples and at the default, every
//     run returns the result of a chain that materializes every intermediate
//     (an unbounded budget), and at the default budget the virtual time of
//     every query whose intermediates all fit one piece is bit-identical to it;
//   - batch size: at batch sizes of 1 and 7 rows every run returns the
//     default size's result with bit-identical charges — elapsed, device
//     elapsed, every account category, batches, transferred bytes and each
//     fleet shard's elapsed and account — and the traced 8d@H1 run renders
//     byte-identical Chrome JSON, flame and profile.
//
// Under the race detector only the budget and the batch size of 7 run.
func TestPieceBudgetLaw(t *testing.T) {
	ds := jobDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	var plans []*exec.Plan
	var decs []*optimizer.Decision
	fits := map[string]bool{}
	defBudget := exec.PieceBudget()
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		d, err := opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		plans, decs = append(plans, p), append(decs, d)
		fits[q.Name] = maxIntermediate(t, ds, p) < defBudget
	}
	if fits["31c"] {
		t.Fatal("31c's intermediates fit one piece: the law exercises no multi-piece chain")
	}
	restore := exec.SetPieceBudget(math.MaxInt)
	materialized := lawRuns(t, ds, plans, decs)
	restore()
	def, defTrace := lawRuns(t, ds, plans, decs), tracedRun(t, ds)

	sizes := []int{1, 7}
	if raceEnabled() {
		sizes = []int{7}
	}
	checkBudget := func(t *testing.T, budget int, got [][]lawRun) {
		for i := range materialized {
			for j, w := range materialized[i] {
				g := got[i][j]
				if g.fp != w.fp {
					t.Errorf("budget %d: %s %s result %s, materialized %s", budget, w.query, w.strategy, g.fp, w.fp)
				}
				if budget == defBudget && fits[w.query] &&
					math.Float64bits(float64(g.elapsed)) != math.Float64bits(float64(w.elapsed)) {
					t.Errorf("budget %d: %s %s elapsed %v, materialized %v", budget, w.query, w.strategy, g.elapsed, w.elapsed)
				}
			}
		}
	}
	checkBudget(t, defBudget, def)
	for _, budget := range sizes {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			defer exec.SetPieceBudget(budget)()
			checkBudget(t, budget, lawRuns(t, ds, plans, decs))
		})
	}
	for _, bs := range sizes {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer exec.SetBatchSize(bs)()
			got := lawRuns(t, ds, plans, decs)
			for i := range def {
				for j, w := range def[i] {
					g := got[i][j]
					if g.fp != w.fp {
						t.Errorf("batch %d: %s %s result %s, default size %s", bs, w.query, w.strategy, g.fp, w.fp)
					}
					if g.charges != w.charges {
						t.Errorf("batch %d: %s %s charges differ from the default size: %s",
							bs, w.query, w.strategy, firstField(w.charges, g.charges))
					}
				}
			}
			if got := tracedRun(t, ds); got != defTrace {
				t.Errorf("batch %d: traced 8d H1 run differs from the default size", bs)
			}
		})
	}
}

// TestProbeKeyedLaw: the probe-keyed path (a whole small first probe fills a
// table keyed by its own keys) changes which rows a buffered join hashes,
// nothing a run reports. Every JOB query host-native and full NDP — the two
// RunPlan passes, on the host and on the device engine — with the path forced
// off and forced on for every whole first probe must return the same
// fingerprint, bit-identical elapsed time and every account category bit for
// bit; and so must the default, which takes it for probes of at most 1/8 of
// the inner side.
func TestProbeKeyedLaw(t *testing.T) {
	ds := jobDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	var plans []*exec.Plan
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	runs := func() [][]lawRun {
		x := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
		out := make([][]lawRun, len(plans))
		errs := make([]error, len(plans))
		par.ForEach(2, len(plans), func(i int) {
			for _, s := range []coop.Strategy{{Kind: coop.HostNative}, {Kind: coop.NDPOnly}} {
				rep, err := x.Run(plans[i], s)
				if err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", plans[i].Query.Name, s, err)
					return
				}
				out[i] = append(out[i], coopRun(rep))
			}
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	restore := exec.SetProbeKeyed(false)
	off := runs()
	restore()
	def := runs()
	restore = exec.SetProbeKeyed(true)
	on := runs()
	restore()
	for i := range off {
		for j, w := range off[i] {
			for _, c := range []struct {
				name string
				got  lawRun
			}{{"forced on", on[i][j]}, {"default", def[i][j]}} {
				if c.got.fp != w.fp {
					t.Errorf("%s %s %s: result %s, path off %s", c.name, w.query, w.strategy, c.got.fp, w.fp)
				}
				if c.got.charges != w.charges {
					t.Errorf("%s %s %s: charges differ from the path off: %s", c.name, w.query, w.strategy, firstField(w.charges, c.got.charges))
				}
			}
		}
	}
}
