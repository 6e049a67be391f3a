// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5), plus the ablation benches of DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem
//
// Results are virtual-clock milliseconds reported as custom metrics
// ("<label>-ms"); wall-clock ns/op only reflects simulator speed. The
// dataset scale is 0.05 by default and can be overridden through the
// HYBRIDNDP_SCALE environment variable.
package hybridndp_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/ftl"
	"hybridndp/internal/harness"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/sched"
)

var (
	benchOnce sync.Once
	benchH    *harness.H
	benchErr  error
)

func benchHarness(b *testing.B) *harness.H {
	b.Helper()
	benchOnce.Do(func() {
		scale := 0.05
		if s := os.Getenv("HYBRIDNDP_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		benchH, benchErr = harness.New(scale, hw.Cosmos())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

// report attaches a virtual-time metric to the benchmark output. Metric
// units must not contain whitespace; labels are sanitized.
func report(b *testing.B, label string, msVal float64) {
	label = strings.ReplaceAll(label, " ", "-")
	b.ReportMetric(msVal, label+"-ms")
}

// BenchmarkFig2IntroQ8c regenerates the introductory experiment (Fig. 2):
// Q8.c under host-only, H0, the best interior split, and full NDP.
func BenchmarkFig2IntroQ8c(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msr, err := h.Fig2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, m := range msr {
				report(b, m.Strategy.String(), m.Elapsed.Milliseconds())
			}
		}
	}
}

// BenchmarkFig11Stacks regenerates Exp 1: Q8.c, Q17.b, Q32.b across the
// BLK, NATIVE, NDP and hybridNDP stacks.
func BenchmarkFig11Stacks(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				report(b, r.Query+"-"+r.Stack, r.Time.Milliseconds())
			}
		}
	}
}

// BenchmarkTable3IntermediateQ17b regenerates the Exp 1 correlation table:
// intermediate-result volume vs execution time per split of Q17.b.
func BenchmarkTable3IntermediateQ17b(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := h.Table3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				report(b, r.Split, r.Time.Milliseconds())
				report(b, r.Split+"-interm-rows", float64(r.Intermediate))
			}
		}
	}
}

// BenchmarkFig13DecisionQuality regenerates Exp 3: optimizer decisions
// against the measured oracle. Slow — it re-runs the sweep.
func BenchmarkFig13DecisionQuality(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig13(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best, acc := 0, 0
			for _, r := range rows {
				switch r.Class {
				case "best":
					best++
				case "acceptable":
					acc++
				}
			}
			report(b, "decision-best-pct", 100*float64(best)/float64(len(rows)))
			report(b, "decision-suitable-pct", 100*float64(best+acc)/float64(len(rows)))
		}
	}
}

// BenchmarkFig14NonIndexedJoin regenerates Exp 4: the Listing 2 two-table
// join on non-indexed columns under BLK, NATIVE and NDP.
func BenchmarkFig14NonIndexedJoin(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig14(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				report(b, r.Projection+"-"+r.Stack, r.Time.Milliseconds())
			}
		}
	}
}

// BenchmarkFig15InSituIndex regenerates Exp 5: device BNL vs device BNLI vs
// the host's indexed plan.
func BenchmarkFig15InSituIndex(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := h.Fig15(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				report(b, r.Projection+"-"+r.Variant, r.Time.Milliseconds())
			}
		}
	}
}

// BenchmarkFig16SplitSweep regenerates Exp 6: Q8.c forced through block,
// H0..H6 and full NDP.
func BenchmarkFig16SplitSweep(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msr, err := h.Fig16(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, m := range msr {
				report(b, m.Strategy.String(), m.Elapsed.Milliseconds())
			}
		}
	}
}

// BenchmarkFig17Table4Timeline regenerates the Q8.d co-processing analysis:
// batch timeline and host/device breakdowns.
func BenchmarkFig17Table4Timeline(b *testing.B) {
	h := benchHarness(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig17Table4(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, "elapsed", res.Report.Elapsed.Milliseconds())
			report(b, "host-wait-pct", res.HostWaitPct)
			report(b, "batches", float64(res.Report.Batches))
		}
	}
}

// BenchmarkProfilerCalibration runs the hardware profiling benchmark and
// reports the CoreMark-derived compute ratio (paper: 92343/2964 ≈ 31×).
func BenchmarkProfilerCalibration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := hw.Profiler{Base: hw.Cosmos(), Quick: true}
		res := p.Run()
		if i == 0 {
			report(b, "compute-ratio", res.Model.ComputeRatio())
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationComputeRatio sweeps the device CoreMark score: weaker
// devices push the best split earlier (toward H0), stronger ones later —
// the §7 discussion about enterprise-class smart storage.
func BenchmarkAblationComputeRatio(b *testing.B) {
	h := benchHarness(b)
	q := job.QueryByName("8c")
	for _, coreMark := range []float64{1000, 2964, 12000, 46000} {
		b.Run(fmt.Sprintf("devCoreMark=%0.f", coreMark), func(b *testing.B) {
			b.ReportAllocs()
			m := h.DS.Model
			m.DeviceCoreMark = coreMark
			hv := h.WithModel(m)
			for i := 0; i < b.N; i++ {
				msr, _, err := hv.SweepStrategies(q)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if best, ok := harness.BestHybrid(msr); ok {
						report(b, "best-"+best.Strategy.String(), best.Elapsed.Milliseconds())
					}
					if ndp, ok := harness.ByKind(msr, coop.NDPOnly); ok {
						report(b, "ndp", ndp.Elapsed.Milliseconds())
					}
				}
			}
		})
	}
}

// BenchmarkAblationPCIe sweeps the interconnect generation: faster links
// shrink the transfer term and move crossovers toward host-side execution.
func BenchmarkAblationPCIe(b *testing.B) {
	h := benchHarness(b)
	q := job.QueryByName("8c")
	for _, gen := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("pcie-gen%d", gen), func(b *testing.B) {
			b.ReportAllocs()
			m := h.DS.Model
			m.PCIeVersion = gen
			hv := h.WithModel(m)
			for i := 0; i < b.N; i++ {
				msr, _, err := hv.SweepStrategies(q)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if best, ok := harness.BestHybrid(msr); ok {
						report(b, "best-"+best.Strategy.String(), best.Elapsed.Milliseconds())
					}
				}
			}
		})
	}
}

// BenchmarkAblationCacheFormat compares the row-cache and pointer-cache
// intermediate formats on the device for a deep plan (paper §4.2 switches
// at >2 tables; this shows why).
func BenchmarkAblationCacheFormat(b *testing.B) {
	h := benchHarness(b)
	q := job.QueryByName("8c")
	p, err := h.Opt.BuildPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, cf := range []struct {
		name string
		fmt  coop.CacheFormat
	}{{"auto", coop.CacheAuto}, {"row", coop.CacheRow}, {"pointer", coop.CachePointer}} {
		b.Run(cf.name, func(b *testing.B) {
			b.ReportAllocs()
			old := h.Exec.CacheFormat
			h.Exec.CacheFormat = cf.fmt
			defer func() { h.Exec.CacheFormat = old }()
			for i := 0; i < b.N; i++ {
				rep, err := h.Exec.Run(p, coop.Strategy{Kind: coop.NDPOnly})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					report(b, "ndp", rep.Elapsed.Milliseconds())
				}
			}
		})
	}
}

// BenchmarkAblationSlots sweeps the shared-buffer slot count, which governs
// how much the device can run ahead of the host before stalling.
func BenchmarkAblationSlots(b *testing.B) {
	h := benchHarness(b)
	// Q17.b at a late split ships many intermediate batches while the host
	// still has per-batch join work — the configuration where slot
	// back-pressure matters.
	q := job.QueryByName("17b")
	for _, slots := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			b.ReportAllocs()
			m := h.DS.Model
			m.SharedSlots = slots
			hv := h.WithModel(m)
			p, err := hv.Opt.BuildPlan(q)
			if err != nil {
				b.Fatal(err)
			}
			split := len(p.Steps) - 1
			if split < 1 {
				split = 1
			}
			for i := 0; i < b.N; i++ {
				rep, err := hv.Exec.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: split})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					report(b, "elapsed", rep.Elapsed.Milliseconds())
					report(b, "dev-wait-slots", rep.DeviceWaitSlots().Milliseconds())
					report(b, "batches", float64(rep.Batches))
				}
			}
		})
	}
}

// BenchmarkAblationSplitTarget compares the paper's CPU+memory split target
// (eq. 12) against a CPU-only variant on decision quality for the marquee
// queries.
func BenchmarkAblationSplitTarget(b *testing.B) {
	h := benchHarness(b)
	queries := []string{"1a", "8c", "8d", "17b", "32b", "6f", "14c"}
	for _, mode := range []string{"cpu+mem", "cpu-only"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			h.Opt.Est.TargetCPUOnly = mode == "cpu-only"
			defer func() { h.Opt.Est.TargetCPUOnly = false }()
			for i := 0; i < b.N; i++ {
				good := 0
				for _, name := range queries {
					q := job.QueryByName(name)
					d, err := h.Opt.Decide(q)
					if err != nil {
						b.Fatal(err)
					}
					msr, _, err := h.SweepStrategies(q)
					if err != nil {
						b.Fatal(err)
					}
					opt, ok := harness.Best(msr)
					if !ok {
						continue
					}
					if d.StrategyLabel() == opt.Strategy.String() {
						good++
					}
				}
				if i == 0 {
					report(b, "exact-matches", float64(good))
				}
			}
		})
	}
}

// BenchmarkTracerOverhead measures what the observability layer adds to the
// scheduler's live path: the JOB mix ×2 drained through the adaptive policy.
// The "off" case is the default nil tracer/nil registry, where every
// instrumentation site reduces to one pointer test; the "on" case prices full
// span tracing plus metrics for comparison.
func BenchmarkTracerOverhead(b *testing.B) {
	h := benchHarness(b)
	mix := harness.ServingMix(2)
	serve := func(b *testing.B, traced bool) {
		cfg := sched.DefaultConfig()
		cfg.Policy = sched.Adaptive
		cfg.QueueDepth = len(mix)
		if traced {
			cfg.Traces = obs.NewTraceSet()
			cfg.Metrics = obs.NewRegistry()
		}
		s := sched.New(h.Opt, h.Exec, h.DS.Model, cfg)
		for j, q := range mix {
			if _, err := s.Submit(context.Background(), q, sched.Priority(j%3)); err != nil {
				s.Close()
				b.Fatal(err)
			}
		}
		s.Close()
		if st := s.Stats(); st.Errors > 0 {
			b.Fatalf("%d queries failed", st.Errors)
		}
	}
	for _, traced := range []bool{false, true} {
		name := "tracer=off"
		if traced {
			name = "tracer=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve(b, traced)
			}
		})
	}
}

// BenchmarkAblationFTLCache sweeps the GreedyFTL mapping-cache budget of the
// BLK baseline and reports the derived block-path overhead (the source of
// the hardware model's BlockStackOverheadPct). Bigger caches shrink the tax.
func BenchmarkAblationFTLCache(b *testing.B) {
	for _, cacheMB := range []int64{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("mapcache=%dMB", cacheMB), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ftl.CalibrateBlockOverhead(ftl.DefaultGeometry(), cacheMB<<20, 42)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					report(b, "overhead-pct", res.OverheadPct)
					report(b, "write-amp", res.Stats.WriteAmplification())
				}
			}
		})
	}
}

// BenchmarkAblationLeanFactor sweeps the lean-pipeline discount that sets
// the device's effective per-record penalty, moving the Fig 14 crossover.
func BenchmarkAblationLeanFactor(b *testing.B) {
	h := benchHarness(b)
	for _, lean := range []float64{2, 5, 10.7, 20} {
		b.Run(fmt.Sprintf("lean=%.1f", lean), func(b *testing.B) {
			b.ReportAllocs()
			m := h.DS.Model
			// Emulate the lean sweep by scaling the device CoreMark so that
			// DataPathRatio/NDPLeanFactor matches the target penalty.
			target := m.DataPathRatio() / lean
			// penalty = sqrt(cr×mr)/NDPLeanFactor; solve cr for the target.
			want := target * hw.NDPLeanFactor // desired sqrt(cr×mr)
			cr := want * want / m.MemRatio()
			m.DeviceCoreMark = m.HostCoreMark / cr
			hv := h.WithModel(m)
			q := job.Listing2(int32(h.DS.Counts["movie_link"]/3), true)
			p, err := hv.Opt.BuildPlan(q)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ndp, err := hv.Exec.Run(p, coop.Strategy{Kind: coop.NDPOnly})
				if err != nil {
					b.Fatal(err)
				}
				host, err := hv.Exec.Run(p, coop.Strategy{Kind: coop.HostNative})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					report(b, "ndp", ndp.Elapsed.Milliseconds())
					report(b, "host", host.Elapsed.Milliseconds())
				}
			}
		})
	}
}
