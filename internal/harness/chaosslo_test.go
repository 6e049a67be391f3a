package harness

import (
	"strings"
	"testing"
)

// TestChaosSLODeterministic runs the chaos-SLO sweep twice at different
// measurement worker counts and requires byte-identical tables and metrics
// dumps — the fault injector, hedging and the open-loop replay are all
// functions of (dataset seed, fault seed, arrival seed), never of wall-clock
// interleaving. The same runs must show the separation the sweep exists to
// prove (Gate passes), with hedges actually firing during measurement.
func TestChaosSLODeterministic(t *testing.T) {
	h := *testHarness(t)
	h.Workers = 1
	a, err := h.ChaosSLOSweep(nil, ChaosSLOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.Workers = 8
	b, err := h.ChaosSLOSweep(nil, ChaosSLOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table != b.Table {
		t.Fatalf("chaos-SLO table differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a.Table, b.Table)
	}
	for i := range a.Dumps {
		if a.Dumps[i] != b.Dumps[i] {
			t.Fatalf("metrics dump %s differs across worker counts", a.Labels[i])
		}
	}
	if err := a.Gate(); err != nil {
		t.Fatalf("chaos separation gate failed: %v\n%s", err, a.Table)
	}
	if !strings.Contains(a.Table, "gate: PASS") {
		t.Fatal("rendered table does not carry the gate verdict")
	}
	// The hedged rows must differ from the unhedged ones — if the hedged
	// cost table were identical, the sweep would be comparing a policy to
	// itself and the gate would be vacuous.
	if WorstP99(a.Results[ChaosAdaptiveHedge]) == WorstP99(a.Results[ChaosAdaptive]) &&
		MissRate(a.Results[ChaosAdaptiveHedge]) == MissRate(a.Results[ChaosAdaptive]) {
		t.Fatal("hedged and unhedged adaptive runs are indistinguishable")
	}
	// Request conservation holds per run (completed + sheds == offered).
	for i, res := range a.Results {
		if res.Completed+res.QuotaRejected+res.QueueRejected+res.DeadlineRejected != res.Requests {
			t.Fatalf("%s: request conservation violated: %+v", a.Labels[i], res)
		}
	}
}
