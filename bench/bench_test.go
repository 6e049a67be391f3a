package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSpecMatchesCatalogue pins BENCHMARK.json to the catalogue in
// metrics.go and the workload list in main.go: same names, units and
// directions, in the same order.
func TestSpecMatchesCatalogue(t *testing.T) {
	d := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, the program runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the catalogue has %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end-to-end metric %d: declared %s [%s, %s], catalogue has %s [%s, %s]", i, m.Name, m.Unit, m.Better, c.Name, c.Unit, c.Better)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("end-to-end metric name %q is not a valid name", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := d.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s, lower], not %s [%s, %s]", m.Name, m.Unit, m.Better)
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the catalogue has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer metric %d: declared %s [%s, %s], catalogue has %s [%s, %s]", i, m.Name, m.Unit, m.Better, c.Name, c.Unit, c.Better)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q is not a valid name", m.Name)
		}
	}
}

// smokeRun runs every workload untraced and traced in the smoke
// configuration and returns the report written to all.json.
func smokeRun(t *testing.T, seed int64) report {
	t.Helper()
	dir := t.TempDir()
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	failed, err := runAll(io.Discard, smokeConfig(seed), names, []bool{false, true}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d ops failed", failed)
	}
	var all report
	if err := readJSON(filepath.Join(dir, "all.json"), &all); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		var one report
		if err := readJSON(filepath.Join(dir, name+".json"), &one); err != nil {
			t.Error(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Dur  float64
			}
		}
		if err := readJSON(filepath.Join(dir, name+".trace.json"), &trace); err != nil {
			t.Error(err)
		} else if len(trace.TraceEvents) == 0 {
			t.Errorf("%s.trace.json holds no spans", name)
		}
	}
	return all
}

// TestSmoke runs all five workloads twice on one seed. Each run must emit
// exactly the declared metrics, each finite, every end-to-end one non-zero;
// the two runs must agree to the digit on everything read on the virtual
// clock or counted.
func TestSmoke(t *testing.T) {
	a, b := smokeRun(t, 7), smokeRun(t, 7)
	if p := a.Provenance; p.GoVersion == "" || p.GOMAXPROCS < 1 || p.NProc < 1 || p.Seed != 7 || !p.Smoke {
		t.Errorf("incomplete provenance: %+v", p)
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wa.EndToEnd == nil || wa.PerLayer == nil {
			t.Fatalf("%s: a pass is missing from the report", w.name)
		}
		for _, pass := range []struct {
			defs []def
			a, b *result
		}{{endToEnd, wa.EndToEnd, wb.EndToEnd}, {perLayer, wa.PerLayer, wb.PerLayer}} {
			if pass.a.Attempted < 1 || pass.a.Failed != 0 || pass.a.Passes < 1 || pass.a.Scale <= 0 {
				t.Errorf("%s: attempted %d, failed %d, passes %d, scale %g", w.name, pass.a.Attempted, pass.a.Failed, pass.a.Passes, pass.a.Scale)
			}
			if len(pass.a.Metrics) != len(pass.defs) {
				t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(pass.a.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				va, ok := pass.a.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: %s was not emitted", w.name, d.Name)
					continue
				}
				if math.IsNaN(va.Value) || math.IsInf(va.Value, 0) || va.Unit != d.Unit {
					t.Errorf("%s: %s = %g %s", w.name, d.Name, va.Value, va.Unit)
				}
				if pass.a == wa.EndToEnd && va.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, va.Value)
				}
				if vb := pass.b.Metrics[d.Name]; (d.Clock == virtual || d.Clock == count) && va.Value != vb.Value {
					t.Errorf("%s: %s is on the %s clock but two runs of one seed gave %v and %v", w.name, d.Name, d.Clock, va.Value, vb.Value)
				}
			}
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(resultLine(wa.EndToEnd)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("%s: result line has keys other than correct, attempted, failed, metrics: %s", w.name, resultLine(wa.EndToEnd))
		}
	}
	// A layer a workload bypasses must read zero there.
	for name, m := range a.Workloads["job-host"].PerLayer.Metrics {
		if (strings.HasPrefix(name, "device.") || strings.HasPrefix(name, "fleet.") || strings.HasPrefix(name, "serve.")) && m.Value != 0 {
			t.Errorf("job-host: %s = %g, want 0", name, m.Value)
		}
	}
	for name, m := range a.Workloads["serve-openloop"].PerLayer.Metrics {
		if (strings.HasPrefix(name, "exec.") || strings.HasPrefix(name, "coop.") || strings.HasPrefix(name, "device.")) && m.Value != 0 {
			t.Errorf("serve-openloop: %s = %g, want 0", name, m.Value)
		}
	}
}

// TestCompare checks the three verdicts of -compare on hand-made reports.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wallP50, spread float64) string {
		m := values{}
		m.setSampled("setup_s", 1, 3, 0)
		m.setSampled("op_wall_ms_p50", wallP50, 452, spread)
		m.set("op_virtual_ms", 4)
		r := report{Workloads: map[string]*wreport{"job-host": {EndToEnd: &result{Metrics: m.complete(endToEnd)}}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("base.json", 2.0, 0.05)
	for _, c := range []struct {
		name      string
		p50       float64
		spread    float64
		wantWorse int
		wantWord  string
	}{
		{"same.json", 2.0, 0.05, 0, " ok"},
		{"faster.json", 1.0, 0.05, 0, " ok"},
		{"slower.json", 2.6, 0.05, 1, " worse"},
		{"noisy.json", 2.6, 0.40, 0, " unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, spec, base, write(c.name, c.p50, c.spread))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse || !strings.Contains(out.String(), c.wantWord) {
			t.Errorf("%s: %d worse, want %d and a %q row; output:\n%s", c.name, worse, c.wantWorse, c.wantWord, out.String())
		}
	}
	if _, err := compareFiles(os.Stderr, spec, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing with a missing file must fail")
	}
}
