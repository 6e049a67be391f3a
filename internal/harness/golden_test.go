package harness

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"hybridndp/internal/job"
	"hybridndp/internal/vclock"
)

// raceEnabled reports whether this test binary was built with the race
// detector, read from the binary's build settings (the build-tag const idiom
// would leave two same-named declarations that the in-tree analysis loader,
// which ignores build constraints, refuses to load).
var raceEnabled = func() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}()

// update regenerates the golden files under testdata/ from the current engine:
//
//	go test ./internal/harness/ -run TestBatchedMatchesGoldens -update
//
// The committed goldens were captured from the volcano (pre-batching) engine,
// so they pin the exact virtual-time bytes the vectorized engine must
// reproduce at every batch size.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current engine")

// goldenBatchSizes are the columnar batch row capacities the golden suite
// replays: 1 is the tuple-at-a-time degenerate case, 7 is odd and never
// divides a scan or join input evenly (exercising ragged final batches), 1024
// is the default.
var goldenBatchSizes = []int{1, 7, 1024}

// goldenSurfaces are the determinism surfaces the suite pins: the optimizer
// plan dump, the full 113-query strategy sweep (elapsed virtual times as exact
// float64 bits), the committed figure/table renderings, a traced execution's
// Chrome JSON + flame + profile, the fleet scale-out table with its
// fingerprint match marks, and the serving SLO table with per-policy metrics
// dumps.
var goldenSurfaces = []struct {
	name string
	run  func(h *H) (string, error)
}{
	{"plans.golden", captureGoldenPlans},
	{"sweep.golden", captureGoldenSweep},
	{"figs.golden", captureGoldenFigs},
	{"trace.golden", captureGoldenTrace},
	{"fleet.golden", captureGoldenFleet},
	{"slo.golden", captureGoldenSLO},
}

func captureGoldenPlans(h *H) (string, error) {
	var buf bytes.Buffer
	if err := h.Plans(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func captureGoldenSweep(h *H) (string, error) {
	qs := job.Queries()
	res := h.SweepParallel(qs)
	var buf bytes.Buffer
	for i, q := range qs {
		if res[i].Err != nil {
			return "", fmt.Errorf("%s: %w", q.Name, res[i].Err)
		}
		for _, m := range res[i].Msr {
			if m.Err != nil {
				return "", fmt.Errorf("%s %s: %w", q.Name, m.Strategy, m.Err)
			}
			// Elapsed virtual times print as raw float64 bits: byte-identity
			// is the contract, not approximate equality.
			fmt.Fprintf(&buf, "%s %s elapsed=%016x rows=%d batches=%d\n",
				q.Name, m.Strategy, math.Float64bits(float64(m.Elapsed)), m.Rows, m.Batches)
		}
	}
	return buf.String(), nil
}

func captureGoldenFigs(h *H) (string, error) {
	var buf bytes.Buffer
	if _, err := h.Fig2(&buf); err != nil {
		return "", err
	}
	if _, err := h.Fig11(&buf); err != nil {
		return "", err
	}
	if _, err := h.Table3(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func captureGoldenTrace(h *H) (string, error) {
	tr, err := h.TraceQuery("8d", "H1")
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, &buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func captureGoldenFleet(h *H) (string, error) {
	var buf bytes.Buffer
	if _, err := h.FleetSweep(&buf, []int{1, 4}, "range"); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func captureGoldenSLO(h *H) (string, error) {
	var buf bytes.Buffer
	rep, err := h.SLOSweep(&buf, SLOOptions{
		Horizon: 300 * vclock.Millisecond,
		Seed:    3,
		Workers: 4,
	})
	if err != nil {
		return "", err
	}
	buf.WriteString("\n-- policy dumps --\n")
	for _, d := range rep.Dumps {
		buf.WriteString(d)
		buf.WriteByte('\n')
	}
	return buf.String(), nil
}

// goldenHarness builds a fresh harness over the shared test dataset so batch
// size and worker knobs never leak into the other tests' shared instance.
func goldenHarness(t *testing.T, batchSize int) *H {
	t.Helper()
	h := FromDataset(testHarness(t).DS)
	h.Workers = 4
	h.SetBatchSize(batchSize)
	return h
}

// TestBatchedMatchesGoldens is the byte-identity gate of the vectorized
// engine: every determinism surface must reproduce the committed pre-change
// goldens exactly, at batch size 1 (which must degenerate to tuple-at-a-time
// behavior), at a ragged odd size, and at the default. Under -race only the
// ragged size runs (the full matrix is wall-clock heavy and adds no extra
// synchronization coverage).
func TestBatchedMatchesGoldens(t *testing.T) {
	if *update {
		h := goldenHarness(t, 0)
		for _, sf := range goldenSurfaces {
			got, err := sf.run(h)
			if err != nil {
				t.Fatalf("update %s: %v", sf.name, err)
			}
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", sf.name), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	sizes := goldenBatchSizes
	if raceEnabled {
		sizes = []int{7}
	}
	// One harness for every size: its executor's recycled scratches are grown
	// at one batch size and reused at the next.
	h := goldenHarness(t, 0)
	for _, bs := range sizes {
		bs := bs
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			h.SetBatchSize(bs)
			for _, sf := range goldenSurfaces {
				got, err := sf.run(h)
				if err != nil {
					t.Fatalf("%s: %v", sf.name, err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", sf.name))
				if err != nil {
					t.Fatalf("%s: %v (run with -update to generate)", sf.name, err)
				}
				if got != string(want) {
					t.Errorf("%s: output differs from golden at batch size %d:\n%s",
						sf.name, bs, firstDiff(string(want), got))
				}
			}
		})
	}
}

// TestBatchedSweepWorkerInvariance re-checks the parallel sweep's
// byte-identity under a non-default batch size: a ragged batch must not
// introduce any worker-count or interleaving dependence. Kept small enough to
// run under -race (see ci.yml's dedicated race step).
func TestBatchedSweepWorkerInvariance(t *testing.T) {
	qs := job.Queries()[:10]
	var base []SweepResult
	for _, workers := range []int{1, 4} {
		h := goldenHarness(t, 7)
		h.Workers = workers
		res := h.SweepParallel(qs)
		if base == nil {
			base = res
			continue
		}
		for i := range res {
			if res[i].Err != nil || base[i].Err != nil {
				t.Fatalf("%s: errs %v / %v", qs[i].Name, base[i].Err, res[i].Err)
			}
			if len(res[i].Msr) != len(base[i].Msr) {
				t.Fatalf("%s: measurement count differs across worker counts", qs[i].Name)
			}
			for j, m := range res[i].Msr {
				b := base[i].Msr[j]
				if m.Elapsed != b.Elapsed || m.Rows != b.Rows || m.Batches != b.Batches {
					t.Fatalf("%s %s: workers=%d diverges from workers=1: %v/%d/%d vs %v/%d/%d",
						qs[i].Name, m.Strategy, workers, m.Elapsed, m.Rows, m.Batches, b.Elapsed, b.Rows, b.Batches)
				}
			}
		}
	}
}

// firstDiff renders the first differing line with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return fmt.Sprintf("lengths differ: golden %d bytes, got %d bytes", len(want), len(got))
}
