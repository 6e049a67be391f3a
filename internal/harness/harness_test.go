package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
)

var (
	hOnce sync.Once
	hInst *H
	hErr  error
)

// testHarness shares one small dataset across harness tests. The scale is
// deliberately tiny: these tests assert mechanics and output structure, not
// the calibrated shapes (those are checked at bench scale).
func testHarness(t *testing.T) *H {
	t.Helper()
	hOnce.Do(func() { hInst, hErr = New(0.01, hw.Cosmos()) })
	if hErr != nil {
		t.Fatal(hErr)
	}
	return hInst
}

func TestSweepStrategiesCoversAll(t *testing.T) {
	h := testHarness(t)
	msr, p, err := h.SweepStrategies(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	// block + native + H0..Hn + ndp.
	want := 2 + 1 + len(p.Steps) + 1
	if len(msr) != want {
		t.Fatalf("sweep produced %d measurements, want %d", len(msr), want)
	}
	for _, m := range msr {
		if m.Err != nil {
			t.Fatalf("%v failed: %v", m.Strategy, m.Err)
		}
		if m.Elapsed <= 0 {
			t.Fatalf("%v reported no time", m.Strategy)
		}
	}
	if _, ok := ByKind(msr, coop.BlockOnly); !ok {
		t.Fatal("block measurement missing")
	}
	if _, ok := BestHybrid(msr); !ok {
		t.Fatal("no hybrid measurement")
	}
	if best, ok := Best(msr); !ok || best.Elapsed <= 0 {
		t.Fatal("Best broken")
	}
}

func TestFig2Output(t *testing.T) {
	h := testHarness(t)
	var buf bytes.Buffer
	msr, err := h.Fig2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(msr) < 3 {
		t.Fatalf("Fig2 kept %d series", len(msr))
	}
	out := buf.String()
	for _, frag := range []string{"host-only", "full NDP", "H0"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig2 output missing %q", frag)
		}
	}
}

func TestFig11AndTable3(t *testing.T) {
	h := testHarness(t)
	var buf bytes.Buffer
	rows, err := h.Fig11(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 queries × 4 stacks
		t.Fatalf("Fig11 rows = %d", len(rows))
	}
	t3, err := h.Table3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3) < 2 {
		t.Fatalf("Table3 rows = %d", len(t3))
	}
	for _, r := range t3 {
		if r.Time <= 0 {
			t.Fatalf("split %s has no time", r.Split)
		}
	}
}

func TestFig14Fig15ResultsAgree(t *testing.T) {
	h := testHarness(t)
	var buf bytes.Buffer
	f14, err := h.Fig14(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14) != 6 { // 2 projections × 3 stacks
		t.Fatalf("Fig14 rows = %d", len(f14))
	}
	var refRows int64 = -1
	for _, r := range f14 {
		if refRows < 0 {
			refRows = r.Rows
		} else if r.Rows != refRows {
			t.Fatalf("Fig14 stacks disagree on rows: %d vs %d", r.Rows, refRows)
		}
	}
	f15, err := h.Fig15(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f15) != 6 {
		t.Fatalf("Fig15 rows = %d", len(f15))
	}
}

func TestFig16AndFig17(t *testing.T) {
	h := testHarness(t)
	var buf bytes.Buffer
	msr, err := h.Fig16(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(msr) < 4 {
		t.Fatalf("Fig16 series = %d", len(msr))
	}
	res, err := h.Fig17Table4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "    batch  0: ready=") || !strings.Contains(out, "  device operations:\n    ") || len(res.HostBreakdown) == 0 {
		t.Fatal("Fig17 result incomplete")
	}
	total := 0.0
	for _, p := range res.HostBreakdown {
		total += p
	}
	if total < 99 || total > 101 {
		t.Fatalf("host breakdown sums to %.1f%%", total)
	}
}

func TestCalibrationReportsRatio(t *testing.T) {
	h := testHarness(t)
	var buf bytes.Buffer
	res := h.Calibration(&buf)
	if r := res.Model.ComputeRatio(); r < 30 || r > 33 {
		t.Fatalf("calibration ratio %.1f", r)
	}
	if !strings.Contains(buf.String(), "compute ratio") {
		t.Fatal("calibration output missing the ratio line")
	}
}
