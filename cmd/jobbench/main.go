// Command jobbench regenerates the paper's evaluation tables and figures
// (EDBT 2025, §5) against the synthetic JOB dataset and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	jobbench                         # every experiment except the slow sweeps
//	jobbench -experiments all        # everything incl. Fig 12 / Fig 13
//	jobbench -experiments fig12      # just the 113-query sweep
//	jobbench -scale 0.1              # bigger dataset
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hybridndp/internal/fault"
	"hybridndp/internal/harness"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/vclock"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.05, "JOB dataset scale (1.0 ≈ 3.9M rows)")
		exps  = flag.String("experiments", "fast",
			"comma list of calib,fig2,fig11,table3,fig12,fig13,fig14,fig15,fig16,fig17 | fast | all")
		seed  = flag.Int64("seed", job.DefaultSeed, "dataset generation seed (0 = default)")
		plans = flag.Bool("plans", false,
			"dump the optimizer's plan and strategy for every JOB query, then exit; byte-identical across runs at a given -seed/-scale")
		trace = flag.String("trace", "",
			"trace one JOB query (e.g. -trace 8d, -trace 8d@H2:out.json): run it under the decided (or @-forced) strategy, write Chrome trace_event JSON, print the flame report and phase profile, then exit")
		metrics = flag.Bool("metrics", false,
			"record execution metrics during the experiments and print the registry dump at the end")
		slots = flag.Int("slots", 0,
			"override the device's shared result-buffer slot count (0 = model default); small values make slot back-pressure visible in traces")
		slotKB = flag.Int("slotkb", 0,
			"override the shared result-buffer slot size in KiB (0 = model default)")
		workers = flag.Int("workers", 1,
			"wall-clock worker goroutines for the sweep experiments and -plans; results are byte-identical to -workers 1")
		deadline = flag.Duration("deadline", 0,
			"per-run virtual execution deadline for the chaos sweep and traced runs (0 = none): once a device attempt's virtual clock plus the next backoff would cross it, the executor stops retrying and falls back to the host immediately")
		faults = flag.String("faults", "",
			"fault-injection spec (e.g. flash.read.err=0.01,dev.crash@batch=7,slot.corrupt=0.005,dev.stall=2ms,seed=1): run the chaos sweep — every JOB query under its decided strategy with faults injected, verified against a fault-free host-native baseline — then exit; with -trace, trace the query under faults instead")
		devicesF = flag.String("devices", "",
			"comma list of fleet sizes (e.g. 1,2,4,8): run the fleet scale-out sweep — every JOB query scatter-gathered over each fleet size, fingerprint-verified against a single-device baseline — then exit (non-zero on any mismatch)")
		fleetSpec = flag.String("fleet", "range",
			"fleet partitioning spec for -devices: range | stripe | stripe:<n>")
		cpuprofile = flag.String("cpuprofile", "",
			"write a wall-clock CPU profile of the run to this file (written on clean exit)")
		memprofile = flag.String("memprofile", "",
			"write a heap profile to this file at clean exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jobbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jobbench:", err)
			}
		}()
	}

	var faultPlan *fault.Plan
	if *faults != "" {
		p, err := fault.Parse(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(2)
		}
		faultPlan = p
	}

	model := hw.Cosmos()
	if *slots > 0 {
		model.SharedSlots = *slots
	}
	if *slotKB > 0 {
		model.SharedBufferSlot = int64(*slotKB) * hw.KB
	}

	want := map[string]bool{}
	switch *exps {
	case "all":
		for _, e := range []string{"calib", "fig2", "fig11", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"} {
			want[e] = true
		}
	case "fast":
		for _, e := range []string{"calib", "fig2", "fig11", "table3", "fig14", "fig15", "fig16", "fig17"} {
			want[e] = true
		}
	default:
		for _, e := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}

	start := time.Now()
	if *trace != "" {
		// Traced single-query run: deterministic, no progress chatter.
		name, outPath := *trace, "trace.json"
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name, outPath = name[:i], name[i+1:]
		}
		strat := ""
		if i := strings.IndexByte(name, '@'); i >= 0 {
			name, strat = name[:i], name[i+1:]
		}
		h, err := harness.NewSeeded(*scale, model, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		if *metrics {
			h.BindMetrics(obs.NewRegistry())
		}
		h.Exec.Faults = faultPlan
		h.Exec.Deadline = vclock.FromStd(*deadline)
		tr, err := h.TraceQuery(name, strat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		if err := tr.WriteTrace(f, os.Stdout); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		if *metrics {
			h.PublishStorage(h.Exec.Metrics)
			fmt.Print(h.Exec.Metrics.Dump())
		}
		fmt.Printf("wrote %s (%d spans)\n", outPath, tr.Trace.Len())
		return
	}
	if faultPlan != nil {
		// Chaos sweep: deterministic, no progress chatter, so repeated runs
		// at a given -seed/-scale/-faults diff byte-for-byte.
		h, err := harness.NewSeeded(*scale, model, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		h.Workers = *workers
		h.Exec.Deadline = vclock.FromStd(*deadline)
		var reg *obs.Registry
		if *metrics {
			reg = h.BindMetrics(obs.NewRegistry())
		}
		res := h.ChaosSweep(os.Stdout, faultPlan)
		if reg != nil {
			h.PublishStorage(reg)
			fmt.Println("\nmetrics")
			fmt.Println("-------")
			fmt.Print(reg.Dump())
		}
		if !res.Clean() {
			os.Exit(1)
		}
		return
	}
	if *devicesF != "" {
		// Fleet scale-out sweep: deterministic, no progress chatter, so
		// repeated runs at a given -seed/-scale/-fleet diff byte-for-byte.
		var counts []int
		for _, part := range strings.Split(*devicesF, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "jobbench: bad -devices entry %q\n", part)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
		h, err := harness.NewSeeded(*scale, model, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		h.Workers = *workers
		res, err := h.FleetSweep(os.Stdout, counts, *fleetSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		if !res.Clean() {
			os.Exit(1)
		}
		return
	}
	if *plans {
		// Plan dump: no progress chatter, so the output can be diffed
		// byte-for-byte between runs.
		h, err := harness.NewSeeded(*scale, model, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		h.Workers = *workers
		if err := h.Plans(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "jobbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("loading JOB at scale %g ...\n", *scale)
	h, err := harness.NewSeeded(*scale, model, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded in %v (%d tables)\n", time.Since(start).Round(time.Millisecond), len(h.DS.Cat.Tables()))
	h.Workers = *workers
	if *metrics {
		h.BindMetrics(obs.NewRegistry())
	}

	w := os.Stdout
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	if want["calib"] {
		h.Calibration(w)
	}
	if want["fig2"] {
		if _, err := h.Fig2(w); err != nil {
			fail(err)
		}
	}
	if want["fig11"] {
		if _, err := h.Fig11(w); err != nil {
			fail(err)
		}
	}
	if want["table3"] {
		if _, err := h.Table3(w); err != nil {
			fail(err)
		}
	}
	if want["fig12"] {
		if _, err := h.Fig12(w); err != nil {
			fail(err)
		}
	}
	if want["fig13"] {
		if _, err := h.Fig13(w); err != nil {
			fail(err)
		}
	}
	if want["fig14"] {
		if _, err := h.Fig14(w); err != nil {
			fail(err)
		}
	}
	if want["fig15"] {
		if _, err := h.Fig15(w); err != nil {
			fail(err)
		}
	}
	if want["fig16"] {
		if _, err := h.Fig16(w); err != nil {
			fail(err)
		}
	}
	if want["fig17"] {
		if _, err := h.Fig17Table4(w); err != nil {
			fail(err)
		}
	}
	if *metrics {
		h.PublishStorage(h.Exec.Metrics)
		fmt.Println("\nmetrics")
		fmt.Println("-------")
		fmt.Print(h.Exec.Metrics.Dump())
	}
	fmt.Printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
}
