package harness

import (
	"bytes"
	"strings"
	"testing"

	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
)

// TestChaosSweepFullCrashMatchesHost is the headline robustness gate: with a
// device that crashes every single command, the full JOB sweep must still
// answer every query — retries exhaust, the executor falls back to the host —
// and every answer must equal the fault-free host-native result.
func TestChaosSweepFullCrashMatchesHost(t *testing.T) {
	h := testHarness(t)
	plan, err := fault.Parse("dev.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res := h.ChaosSweep(&buf, plan)
	if !res.Clean() {
		t.Fatalf("full-crash sweep not clean (%d errors, %d mismatches):\n%s",
			res.Errors, res.Mismatches, buf.String())
	}
	if res.Fallbacks == 0 {
		t.Fatal("100% crash plan produced no host fallbacks")
	}
	// One table line per query: "<query> <strategy> <elapsed>
	// retries=<n>[ fallback=host]".
	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[3], "retries=") {
			continue
		}
		lines++
		deviceBound, fellBack := f[1] != "native", strings.HasSuffix(line, " fallback=host")
		if deviceBound && !fellBack {
			t.Fatalf("device-bound query survived a 100%% crash device without falling back: %s", line)
		}
		if !deviceBound && (fellBack || f[3] != "retries=0") {
			t.Fatalf("host-native query saw fault recovery: %s", line)
		}
	}
	if lines != len(job.Queries()) {
		t.Fatalf("sweep table has %d query lines, want %d:\n%s", lines, len(job.Queries()), buf.String())
	}
	// The sweep must leave the executor fault-free for later tests.
	if h.Exec.Faults != nil {
		t.Fatal("ChaosSweep leaked the fault plan into the executor")
	}
}

// TestChaosSweepDeterministic pins the chaos sweep's reproducibility contract:
// the same dataset seed and fault spec produce a byte-identical sweep table —
// independent of the wall-clock worker count, because injectors are keyed per
// query+strategy, not per draw order — and repeating the run reproduces the
// metrics dump byte for byte. (The dump comparison holds the worker count
// fixed: histogram sums are float accumulations, so only the summation order,
// not any recorded value, may differ across worker counts.)
func TestChaosSweepDeterministic(t *testing.T) {
	spec := "flash.read.err=0.05,dev.crash@batch=3,slot.corrupt=0.02,dev.stall=1ms,seed=11"
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (string, string) {
		t.Helper()
		h, err := NewSeeded(0.01, hw.Cosmos(), job.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		h.Workers = workers
		reg := h.BindMetrics(obs.NewRegistry())
		var buf bytes.Buffer
		res := h.ChaosSweep(&buf, plan)
		if !res.Clean() {
			t.Fatalf("chaos sweep (workers=%d) not clean:\n%s", workers, buf.String())
		}
		h.PublishStorage(reg)
		return buf.String(), reg.Dump()
	}
	out1, dump1 := run(1)
	out2, dump2 := run(1)
	out4, _ := run(4)
	if out1 != out2 {
		t.Errorf("chaos sweep output differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", out1, out2)
	}
	if dump1 != dump2 {
		t.Errorf("metrics dump differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", dump1, dump2)
	}
	if out1 != out4 {
		t.Errorf("chaos sweep output depends on the worker count:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", out1, out4)
	}
	if !strings.Contains(dump1, "coop.fault.injected") {
		t.Fatalf("metrics dump records no injected faults:\n%s", dump1)
	}
}

// TestChaosTraceDeterministic pins the traced recovery path: tracing the same
// query under the same fault spec twice yields byte-identical Chrome trace
// JSON (and text report), and the trace contains the retry and host-fallback
// spans that tracecheck -chaos gates on.
func TestChaosTraceDeterministic(t *testing.T) {
	h := testHarness(t)
	plan, err := fault.Parse("dev.crash=1,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	prev := h.Exec.Faults
	h.Exec.Faults = plan
	defer func() { h.Exec.Faults = prev }()
	run := func() (string, string) {
		t.Helper()
		tr, err := h.TraceQuery("8d", "H1")
		if err != nil {
			t.Fatal(err)
		}
		var js, txt bytes.Buffer
		if err := tr.WriteTrace(&js, &txt); err != nil {
			t.Fatal(err)
		}
		return js.String(), txt.String()
	}
	js1, txt1 := run()
	js2, txt2 := run()
	if js1 != js2 {
		t.Error("chaos trace JSON differs between identical runs")
	}
	if txt1 != txt2 {
		t.Error("chaos trace text report differs between identical runs")
	}
	for _, span := range []string{"coop.retry", "coop.fallback.host"} {
		if !strings.Contains(js1, span) {
			t.Errorf("chaos trace missing %s span", span)
		}
	}
}
