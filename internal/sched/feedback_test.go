package sched

import (
	"math"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/cost"
	"hybridndp/internal/exec"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

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
	f := NewFeedback()
	a := decision("a")
	if devF, hostF, trusted := f.factorsFor("a"); devF != 1 || hostF != 1 || trusted {
		t.Fatalf("empty store quotes %v/%v trusted=%v", devF, hostF, trusted)
	}
	if got := f.Price(a, h1); got != 85 { // max(80, 20) + 5
		t.Fatalf("unlearned H1 price %v, want the model's 85", got)
	}

	// A host run 3× over the estimate teaches the host factor, vouches for the
	// cardinalities (3 ≤ deviceRiskCap) and drags the unseen device side along.
	f.Observe(a, host, f.Price(a, host), run(300, 0))
	if devF, hostF, trusted := f.factorsFor("a"); devF != 3 || hostF != 3 || !trusted {
		t.Fatalf("after a 3× host run: %v/%v trusted=%v", devF, hostF, trusted)
	}
	if f.DeviceFactor() != 1 {
		t.Fatal("a host run moved the fleet-wide device factor")
	}
	// A device run 2× over teaches the device factor alone, and — being the
	// first device run at all — the fleet-wide fallback other queries start from.
	f.Observe(a, ndp, f.Price(a, ndp), run(400, 400))
	if devF, hostF, _ := f.factorsFor("a"); devF != 2 || hostF != 3 {
		t.Fatalf("after a 2× device run: %v/%v", devF, hostF)
	}
	if devF, hostF, trusted := f.factorsFor("b"); devF != 2 || hostF != 1 || trusted {
		t.Fatalf("unseen query starts from %v/%v trusted=%v, want the fleet-wide 2 and no trust", devF, hostF, trusted)
	}
	if got := f.Price(a, h1); got != 175 { // max(80×2, 20×3) + 5×3
		t.Fatalf("learned H1 price %v, want 175", got)
	}

	// A join explosion: 5000× on the host is clamped to 1000 and is no
	// evidence for the device at all.
	b := decision("b")
	f.Observe(b, host, f.Price(b, host), run(500000, 0))
	if devF, hostF, trusted := f.factorsFor("b"); hostF != queryMax || devF != queryMax || trusted {
		t.Fatalf("after a 5000× host run: %v/%v trusted=%v", devF, hostF, trusted)
	}

	runs := f.Runs()
	if len(runs) != 3 || runs[0].Estimated != 100 || runs[0].Ratio() != 3 || runs[1].Estimated != 600 {
		t.Fatalf("run log: %+v", runs)
	}
	if qr := f.Quality(); qr.Runs != 3 || qr.ByStrategy["native"] != 2 || qr.ByStrategy["ndp"] != 1 || math.IsNaN(qr.MedianRatio) {
		t.Fatalf("quality: %+v", qr)
	}
}
