package harness

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridndp/internal/exec"
	"hybridndp/internal/job"
	"hybridndp/internal/par"
	"hybridndp/internal/query"
	"hybridndp/internal/vclock"
)

// update regenerates the golden files under testdata/ from the current engine:
//
//	go test ./internal/harness/ -run TestBatchedMatchesGoldens -update
//
// The committed goldens were captured from the volcano (pre-batching) engine,
// so they pin the exact virtual-time bytes the vectorized engine must
// reproduce.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current engine")

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

// captureGoldenSweep renders the strategy sweep. A measurement keeps its
// elapsed time only; its row and batch counts come from a rerun of the same
// plan and strategy, which must reproduce that elapsed time bit for bit.
func captureGoldenSweep(h *H) (string, error) {
	qs := job.Queries()
	res := h.SweepParallel(qs)
	lines := make([]string, len(qs))
	errs := make([]error, len(qs))
	par.ForEach(h.Workers, len(qs), func(i int) {
		lines[i], errs[i] = sweepLines(h, qs[i], res[i])
	})
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	return strings.Join(lines, ""), nil
}

// sweepLines renders one query's sweep measurements.
func sweepLines(h *H, q *query.Query, r SweepResult) (string, error) {
	if r.Err != nil {
		return "", fmt.Errorf("%s: %w", q.Name, r.Err)
	}
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, m := range r.Msr {
		if m.Err != nil {
			return "", fmt.Errorf("%s %s: %w", q.Name, m.Strategy, m.Err)
		}
		rep, err := h.Exec.Run(p, m.Strategy)
		if err != nil {
			return "", fmt.Errorf("%s %s: rerun: %w", q.Name, m.Strategy, err)
		}
		if rep.Elapsed != m.Elapsed {
			return "", fmt.Errorf("%s %s: rerun elapsed %v, sweep %v", q.Name, m.Strategy, rep.Elapsed, m.Elapsed)
		}
		// Elapsed virtual times print as raw float64 bits: byte-identity is
		// the contract, not approximate equality.
		fmt.Fprintf(&b, "%s %s elapsed=%016x rows=%d batches=%d\n",
			q.Name, m.Strategy, math.Float64bits(float64(m.Elapsed)), rep.Result.RowCount, rep.Batches)
	}
	return b.String(), nil
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

// goldenHarness builds a fresh harness over the shared test dataset so the
// worker knob never leaks into the other tests' shared instance.
func goldenHarness(t *testing.T) *H {
	t.Helper()
	h := FromDataset(testHarness(t).DS)
	h.Workers = 4
	return h
}

// TestBatchedMatchesGoldens is the byte-identity gate of the vectorized
// engine: every determinism surface, rendered once at the default batch
// size, must reproduce the committed pre-change goldens exactly. That the
// batch size and the piece budget move no virtual-time charge is exec's
// TestPieceBudgetLaw, run per query.
func TestBatchedMatchesGoldens(t *testing.T) {
	h := goldenHarness(t)
	t.Run(fmt.Sprintf("batch=%d", exec.DefaultBatchSize), func(t *testing.T) {
		for _, sf := range goldenSurfaces {
			got, err := sf.run(h)
			if err != nil {
				t.Fatalf("%s: %v", sf.name, err)
			}
			path := filepath.Join("testdata", sf.name)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to generate)", sf.name, err)
			}
			if got != string(want) {
				t.Errorf("%s: output differs from golden:\n%s", sf.name, firstDiff(string(want), got))
			}
		}
	})
}

// TestBatchedSweepWorkerInvariance re-checks the parallel sweep's
// byte-identity on fresh harnesses: the worker count must not introduce any
// interleaving dependence. Kept small enough to run under -race.
func TestBatchedSweepWorkerInvariance(t *testing.T) {
	qs := job.Queries()[:10]
	var base []SweepResult
	for _, workers := range []int{1, 4} {
		h := goldenHarness(t)
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
				if m.Elapsed != b.Elapsed {
					t.Fatalf("%s %s: workers=%d diverges from workers=1: %v vs %v",
						qs[i].Name, m.Strategy, workers, m.Elapsed, b.Elapsed)
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
