package sched

import (
	"math"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/cost"
	"hybridndp/internal/exec"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// priceOf prices the decided query under s as the live runner does: the cost
// model's figure corrected by what f has learned.
func priceOf(f *feedback, d *optimizer.Decision, s coop.Strategy) float64 {
	devF, hostF, _ := f.factorsFor(queryKey(d))
	return price(d.Costs, s, devF, hostF)
}

// TestFeedbackFactors pins what the store learns from a run and what it
// quotes afterwards, on hand-built cost pictures and reports: a pool teaches
// only its own factor, the first device run of any query sets the fleet-wide
// fallback, ratios are clamped, and device prices are trusted only on
// evidence.
func TestFeedbackFactors(t *testing.T) {
	decision := func(name string) *optimizer.Decision {
		return &optimizer.Decision{
			Plan: &exec.Plan{Query: &query.Query{Name: name}},
			Costs: &cost.SplitCosts{
				HostTotal: 100, NDPTotal: 200,
				DevPart: []float64{50, 80}, HostPart: []float64{60, 20}, Trans: []float64{10, 5},
			},
			Reason: "test",
		}
	}
	run := func(elapsed, devBusy vclock.Duration) *coop.Report {
		return &coop.Report{Elapsed: elapsed, HostAccount: map[string]vclock.Duration{},
			DeviceAccount: map[string]vclock.Duration{"flash load": devBusy}}
	}
	var (
		host = coop.Strategy{Kind: coop.HostNative}
		h1   = coop.Strategy{Kind: coop.Hybrid, Split: 1}
		ndp  = coop.Strategy{Kind: coop.NDPOnly}
	)
	f := newFeedback()
	a := decision("a")
	if devF, hostF, trusted := f.factorsFor("a"); devF != 1 || hostF != 1 || trusted {
		t.Fatalf("empty store quotes %v/%v trusted=%v", devF, hostF, trusted)
	}
	if got := priceOf(f, a, h1); got != 85 { // max(80, 20) + 5
		t.Fatalf("unlearned H1 price %v, want the model's 85", got)
	}

	// A host run 3× over the estimate teaches the host factor, vouches for the
	// cardinalities (3 ≤ deviceRiskCap) and drags the unseen device side along.
	f.observe(a, host, run(300, 0))
	if devF, hostF, trusted := f.factorsFor("a"); devF != 3 || hostF != 3 || !trusted {
		t.Fatalf("after a 3× host run: %v/%v trusted=%v", devF, hostF, trusted)
	}
	if f.deviceFactor() != 1 {
		t.Fatal("a host run moved the fleet-wide device factor")
	}
	// A device run 2× over teaches the device factor alone, and — being the
	// first device run at all — the fleet-wide fallback other queries start from.
	f.observe(a, ndp, run(400, 400))
	if devF, hostF, _ := f.factorsFor("a"); devF != 2 || hostF != 3 {
		t.Fatalf("after a 2× device run: %v/%v", devF, hostF)
	}
	if devF, hostF, trusted := f.factorsFor("b"); devF != 2 || hostF != 1 || trusted {
		t.Fatalf("unseen query starts from %v/%v trusted=%v, want the fleet-wide 2 and no trust", devF, hostF, trusted)
	}
	if got := priceOf(f, a, h1); got != 175 { // max(80×2, 20×3) + 5×3
		t.Fatalf("learned H1 price %v, want 175", got)
	}

	// A join explosion: 5000× on the host is clamped to 1000 and is no
	// evidence for the device at all.
	b := decision("b")
	f.observe(b, host, run(500000, 0))
	if devF, hostF, trusted := f.factorsFor("b"); hostF != queryMax || devF != queryMax || trusted {
		t.Fatalf("after a 5000× host run: %v/%v trusted=%v", devF, hostF, trusted)
	}
}

// TestFeedbackImprovesEstimateRatio: each run of a query is priced from what
// the store learned before it, so repeating the query moves measured/priced
// toward 1 — and only that query's prices move.
func TestFeedbackImprovesEstimateRatio(t *testing.T) {
	opt, x, _ := fixture(t)
	f := newFeedback()
	other, err := opt.Decide(job.QueryByName("6f"))
	if err != nil {
		t.Fatal(err)
	}
	before := priceOf(f, other, hostNative)
	var first, last float64
	for i := 0; i < 8; i++ {
		d, err := opt.Decide(job.QueryByName("17b"))
		if err != nil {
			t.Fatal(err)
		}
		s := coop.DecisionStrategy(d)
		est := priceOf(f, d, s)
		rep, err := x.Run(d.Plan, s)
		if err != nil {
			t.Fatal(err)
		}
		f.observe(d, s, rep)
		last = float64(rep.Elapsed) / est
		if i == 0 {
			first = last
		}
	}
	if first == 1 {
		t.Skip("the cost model prices 17b exactly; nothing to learn")
	}
	if math.Abs(last-1) >= math.Abs(first-1) {
		t.Fatalf("feedback did not improve the prices: first ratio %.3f, last %.3f", first, last)
	}
	if math.Abs(last-1) > 0.05 {
		t.Fatalf("after 8 identical runs the price is still off by %.1f%%", 100*math.Abs(last-1))
	}
	if after := priceOf(f, other, hostNative); after != before {
		t.Fatalf("runs of 17b moved 6f's host price: %.0f → %.0f", before, after)
	}
}
