package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
)

// TestFleetMatchesSingleDevice is the fleet's end-to-end correctness gate:
// every JOB query's scatter-gather result at every swept fleet size must be
// byte-identical (fingerprint) to a single-device cooperative execution of
// the optimizer-decided strategy. A fleet of one also runs the cooperative
// executor's commands — the same chunks, the same split — so its elapsed
// equals the baseline's bit for bit, except under NDP, which the fleet
// finalizes on the host instead of the device.
func TestFleetMatchesSingleDevice(t *testing.T) {
	h := testHarness(t)
	var buf bytes.Buffer
	res, err := h.FleetSweep(&buf, []int{1, 4}, "range")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("\n%d queries: ", len(job.Queries()))) {
		t.Fatalf("sweep did not cover the %d queries:\n%s", len(job.Queries()), buf.String())
	}
	if !res.Clean() {
		t.Fatalf("fleet sweep not clean (%d errors, %d mismatches):\n%s",
			res.Errors, res.Mismatches, buf.String())
	}
	desc, err := fleet.Build(h.DS.Cat, 1, "range")
	if err != nil {
		t.Fatal(err)
	}
	one := fleet.NewExecutor(h.DS.Cat, h.DS.DB, h.DS.Model, desc)
	for _, q := range job.Queries() {
		d, err := h.Opt.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		if d.StrategyLabel() == "ndp" { // the fleet finalizes NDP on the host
			continue
		}
		base, err := h.Exec.Run(d.Plan, coop.DecisionStrategy(d))
		if err != nil {
			t.Fatal(err)
		}
		a, err := fleet.PlanShards(h.Opt, desc, d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := one.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Elapsed != base.Elapsed {
			t.Errorf("%s (%s): 1-device fleet elapsed %d ns, cooperative %d ns", q.Name, d.StrategyLabel(), int64(rep.Elapsed), int64(base.Elapsed))
		}
	}
}

// TestFleetSweepDeterministic requires the sweep table to be byte-identical
// across worker counts and across a freshly loaded identically-seeded
// dataset: fleet placement and split planning derive only from dataset
// statistics, and the gather merges in partition order, so neither goroutine
// interleaving nor process history may perturb a single byte.
func TestFleetSweepDeterministic(t *testing.T) {
	h := testHarness(t)
	counts := []int{1, 2, 4}

	seq := *h
	seq.Workers = 1
	par := *h
	par.Workers = 8

	var bseq, bpar bytes.Buffer
	if _, err := seq.FleetSweep(&bseq, counts, "stripe"); err != nil {
		t.Fatal(err)
	}
	if _, err := par.FleetSweep(&bpar, counts, "stripe"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bseq.Bytes(), bpar.Bytes()) {
		t.Fatalf("fleet sweep differs between 1 and 8 workers:\n--- seq:\n%s\n--- par:\n%s",
			bseq.String(), bpar.String())
	}

	fresh, err := NewSeeded(0.01, hw.Cosmos(), job.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Workers = 4
	var brepeat bytes.Buffer
	if _, err := fresh.FleetSweep(&brepeat, counts, "stripe"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bseq.Bytes(), brepeat.Bytes()) {
		t.Fatalf("fleet sweep differs across freshly loaded datasets:\n--- first:\n%s\n--- repeat:\n%s",
			bseq.String(), brepeat.String())
	}
}
