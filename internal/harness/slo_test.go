package harness

import (
	"bytes"
	"strings"
	"testing"

	"hybridndp/internal/job"
	"hybridndp/internal/sched"
	"hybridndp/internal/vclock"
)

// TestServeDeterministic is the serving determinism contract: for each seed,
// the rendered SLO table and every per-policy metrics dump are byte-identical
// no matter how many wall-clock workers measure the cost table. This test
// also runs under -race in CI.
func TestServeDeterministic(t *testing.T) {
	h := *testHarness(t)
	qs := job.Queries()[:24]
	for _, seed := range []int64{3, 9} {
		type snap struct {
			table string
			dumps []string
		}
		var base *snap
		for _, workers := range []int{1, 4} {
			h.Workers = workers
			var buf bytes.Buffer
			rep, err := h.SLOSweep(&buf, SLOOptions{
				Queries: qs,
				Horizon: 300 * vclock.Millisecond,
				Seed:    seed,
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if rep.Table != buf.String() {
				t.Fatal("report table and writer output diverge")
			}
			if len(rep.Results) != 3 || len(rep.Dumps) != 3 {
				t.Fatalf("want 3 policies, got %d results / %d dumps", len(rep.Results), len(rep.Dumps))
			}
			cur := &snap{table: rep.Table, dumps: rep.Dumps}
			if base == nil {
				base = cur
				continue
			}
			if cur.table != base.table {
				t.Fatalf("seed %d: SLO table differs across worker counts:\n--- workers=1\n%s\n--- workers=%d\n%s",
					seed, base.table, workers, cur.table)
			}
			for i := range cur.dumps {
				if cur.dumps[i] != base.dumps[i] {
					t.Fatalf("seed %d: policy %d metrics dump differs across worker counts", seed, i)
				}
			}
		}
		if base.table == "" || !strings.Contains(base.table, "gold") {
			t.Fatalf("table missing tenant rows:\n%s", base.table)
		}
	}
}

// TestSLOSweepOverloadSeparation is the serving acceptance scenario: under
// the calibrated overload the adaptive policy must beat BOTH forced baselines
// on aggregate SLO miss rate — force-host leaves the device idle, force-ndp
// serializes on the device command slot, adaptive spreads across both pools.
func TestSLOSweepOverloadSeparation(t *testing.T) {
	h := *testHarness(t)
	h.Workers = 8
	rep, err := h.SLOSweep(nil, SLOOptions{Seed: 5, Horizon: 500 * vclock.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RatePerTenant <= 0 {
		t.Fatal("default scenario should calibrate an overload rate")
	}
	byPolicy := map[sched.Policy]*float64{}
	for _, res := range rep.Results {
		m := MissRate(res)
		byPolicy[res.Policy] = &m
		if res.Completed == 0 {
			t.Fatalf("%v completed nothing", res.Policy)
		}
	}
	adaptive, host, ndp := *byPolicy[sched.Adaptive], *byPolicy[sched.ForceHost], *byPolicy[sched.ForceNDP]
	if adaptive >= host {
		t.Fatalf("adaptive miss rate %.3f not better than force-host %.3f\n%s", adaptive, host, rep.Table)
	}
	if adaptive >= ndp {
		t.Fatalf("adaptive miss rate %.3f not better than force-ndp %.3f\n%s", adaptive, ndp, rep.Table)
	}
}
