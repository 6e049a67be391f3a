package harness

import (
	"bytes"
	"runtime"
	"testing"

	"hybridndp/internal/sched"
)

// TestServingSweepAdaptiveWins is the acceptance check of the scheduler: under
// load (concurrency ≥ 16) the adaptive policy must beat both forced baselines
// on virtual throughput, every submitted query must complete (no starvation),
// and the admission wait must stay bounded.
func TestServingSweepAdaptiveWins(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep replays the JOB mix three ways")
	}
	h := testHarness(t)
	var buf bytes.Buffer
	rows, err := h.ServingSweep(&buf, []int{16})
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	byPolicy := map[sched.Policy]ServingRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	host, ndp, ad := byPolicy[sched.ForceHost], byPolicy[sched.ForceNDP], byPolicy[sched.Adaptive]
	want := int64(len(ServingMix(3)))
	for _, r := range []ServingRow{host, ndp, ad} {
		if r.Completed != want || r.Errors != 0 {
			t.Fatalf("%v completed %d/%d with %d errors\n%s",
				r.Policy, r.Completed, want, r.Errors, buf.String())
		}
		if r.QueueWaitMax > r.Makespan {
			t.Fatalf("%v queue wait %v exceeds the makespan %v", r.Policy, r.QueueWaitMax, r.Makespan)
		}
	}
	if ad.Throughput <= host.Throughput {
		t.Fatalf("adaptive (%.2f q/s) does not beat always-host (%.2f q/s)\n%s",
			ad.Throughput, host.Throughput, buf.String())
	}
	if ad.Throughput <= ndp.Throughput {
		t.Fatalf("adaptive (%.2f q/s) does not beat always-NDP (%.2f q/s)\n%s",
			ad.Throughput, ndp.Throughput, buf.String())
	}
	// The win must come from cooperation: the adaptive run uses both pools.
	if ad.DeviceBusy <= 0 || ad.HostBusy <= 0 {
		t.Fatalf("adaptive run left a pool idle: dev=%v host=%v", ad.DeviceBusy, ad.HostBusy)
	}
	if ad.Degraded == 0 {
		t.Fatal("adaptive run under load never degraded a query")
	}
}

// TestServingSweepDeterministic pins the sweep to virtual time: its text —
// adaptive rows included — is byte-identical from run to run and whatever
// GOMAXPROCS is, because nothing in the scheduler depends on wall-clock order.
func TestServingSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep replays the JOB mix three ways, twice")
	}
	h := testHarness(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var texts [2]bytes.Buffer
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if _, err := h.ServingSweep(&texts[i], []int{4}); err != nil {
			t.Fatalf("%v\n%s", err, texts[i].String())
		}
	}
	if !bytes.Equal(texts[0].Bytes(), texts[1].Bytes()) {
		t.Fatalf("sweep text differs between runs:\n%s\n%s", texts[0].String(), texts[1].String())
	}
}
