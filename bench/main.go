// Command bench is the repository's benchmark: five workloads, two clocks
// (virtual time — the modelled system's answer, exact for a seed — and wall
// time — how fast the simulator produces it), and per-layer numbers measured
// from outside the packages. See README.md in this directory.
//
//	bash bench/run.sh                                   every workload, untraced then traced
//	bash bench/run.sh --workload job-host --seed 2 --seconds 10 --trace 0
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hybridndp/internal/vclock"
)

// config sizes a run. Seed and seconds come from the command line; the rest
// is fixed per configuration (full or smoke) so that runs stay comparable.
type config struct {
	seed    int64
	seconds float64
	smoke   bool

	loadScale  float64 // load
	jobScale   float64 // job-host, job-hybrid, fleet4
	serveScale float64 // serve-openloop
	horizon    vclock.Duration
	systems    int // systems an untraced run generates, sets up and measures
	jobSetups  int // times a JOB system is set up (the last one is kept); setup_s is the median of all
	minPasses  int // timed passes (loads, ladder plays) each system gets at least
	gets       int // point lookups of the storage probe
}

// systemSeed derives the seed of a run's k-th system. One dataset is a small
// sample — at scale 0.02 a selective predicate keeps a handful of rows, give
// or take — so per-query costs swing widely from seed to seed. A run
// therefore measures several systems and pools their per-op samples, which
// also averages over the memory layout a single process happens to get.
func (c config) systemSeed(k int) int64 { return c.seed*1000 + int64(k) }

// fullConfig is the measured configuration. Scale 0.02 for the JOB workloads
// keeps the heaviest query (31c) below the heap size at which page-fault
// storms set its wall time (README, "Noise model").
func fullConfig(seed int64, seconds float64) config {
	return config{
		seed: seed, seconds: seconds,
		loadScale: 0.05, jobScale: 0.01, serveScale: 0.01,
		horizon: 600 * vclock.Second,
		systems: 4, jobSetups: 3, minPasses: 2, gets: 10000,
	}
}

// smokeConfig runs every code path of every workload in a few seconds.
func smokeConfig(seed int64) config {
	return config{
		seed: seed, smoke: true,
		loadScale: 0.005, jobScale: 0.005, serveScale: 0.005,
		horizon: 5 * vclock.Second,
		systems: 1, jobSetups: 1, minPasses: 1, gets: 500,
	}
}

// budget is the wall time the timed passes may fill. A traced run spends
// half of it on the untraced passes it needs as its overhead baseline.
func (c config) budget(traced bool) time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if traced {
		d /= 2
	}
	return d
}

// timedLoop calls pass at least min times, then for as long as one more pass
// as long as the last one still fits the budget. It returns the number of
// passes.
func timedLoop(budget time.Duration, min int, pass func(i int) error) (int, error) {
	start := time.Now()
	for n := 0; ; {
		t0 := time.Now()
		if err := pass(n); err != nil {
			return n, err
		}
		n++
		if n >= min && time.Since(start)+time.Since(t0) > budget {
			return n, nil
		}
	}
}

// sample is what one measured system contributes to a run's end-to-end
// metrics: its set-up time and per-op samples on both clocks.
type sample struct {
	setupS    []float64 // every set-up of the system
	wallMs    []float64 // per op, the best wall time over the timed passes
	allocKB   []float64 // per op
	virtualMs []float64 // per op
	stored    float64   // flash bytes written per byte of user data
}

// endToEndMetrics pools the systems' samples. Each metric's spread is taken
// over the systems' own values.
func endToEndMetrics(m values, samples []sample) {
	var pool sample
	var setups, stored []float64
	var own [4][]float64
	for _, s := range samples {
		setups = append(setups, s.setupS...)
		stored = append(stored, s.stored)
		pool.wallMs = append(pool.wallMs, s.wallMs...)
		pool.allocKB = append(pool.allocKB, s.allocKB...)
		pool.virtualMs = append(pool.virtualMs, s.virtualMs...)
		own[0] = append(own[0], median(s.wallMs))
		own[1] = append(own[1], quantile(s.wallMs, 0.9))
		own[2] = append(own[2], median(s.allocKB))
		own[3] = append(own[3], median(s.virtualMs))
	}
	m.setSampled("setup_s", median(setups), len(setups), spread(setups))
	m.setSampled("op_wall_ms_p50", median(pool.wallMs), len(pool.wallMs), spread(own[0]))
	m.setSampled("op_wall_ms_p90", quantile(pool.wallMs, 0.9), len(pool.wallMs), spread(own[1]))
	m.setSampled("op_alloc_kb", median(pool.allocKB), len(pool.allocKB), spread(own[2]))
	m.setSampled("op_virtual_ms", median(pool.virtualMs), len(pool.virtualMs), spread(own[3]))
	m.setSampled("stored_bytes_per_user_byte", median(stored), len(stored), spread(stored))
}

// result is the outcome of one workload run, untraced (end-to-end metrics)
// or traced (per-layer metrics).
type result struct {
	Scale     float64  `json:"scale"`
	Passes    int      `json:"passes"` // R: timed passes behind every min/median
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Metrics   values   `json:"metrics"`

	trace *recorder
}

// fail counts one failed op: an error, or an output that does not match its
// reference. The first few are kept verbatim.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg config, traced bool) (*result, error)
}

var workloads = []workload{
	{"load", runLoad},
	{"job-host", func(c config, t bool) (*result, error) { return runJob(modeHost, c, t) }},
	{"job-hybrid", func(c config, t bool) (*result, error) { return runJob(modeHybrid, c, t) }},
	{"fleet4", func(c config, t bool) (*result, error) { return runJob(modeFleet, c, t) }},
	{"serve-openloop", runServe},
}

// provenance is recorded in every output file.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Hardware   string  `json:"hardware_model"`
}

func newProvenance(cfg config) provenance {
	commit, dirty := "unknown", "" // a checkout that is not a git repository stamps nothing
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	return provenance{
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke, Hardware: "hw.Cosmos()",
	}
}

// report is the schema of every file under bench/out/: provenance plus, per
// workload, the untraced and the traced run.
type report struct {
	Provenance provenance          `json:"provenance"`
	Workloads  map[string]*wreport `json:"workloads"`
}

type wreport struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints every metric of defs by name with its unit.
func printMetrics(w io.Writer, workload string, defs []def, m values) {
	for _, d := range defs {
		v := m[d.Name]
		extra := ""
		if v.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", v.Samples)
		}
		if v.Spread > 0 {
			extra += fmt.Sprintf("  spread=%.1f%%", 100*v.Spread)
		}
		fmt.Fprintf(w, "%-15s %-34s %16.6g %-6s %-7s%s\n", workload, d.Name, v.Value, d.Unit, d.Clock, extra)
	}
}

// resultLine is the last line of standard output for a single-workload run.
func resultLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only finite floats and strings go in
	}
	return string(line)
}

// runAll runs the selected workloads and passes, prints their metrics, writes
// the files under outDir and returns the number of failed ops.
func runAll(out io.Writer, cfg config, names []string, traceModes []bool, outDir string) (int, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	all := report{Provenance: newProvenance(cfg), Workloads: map[string]*wreport{}}
	failed := 0
	var last *result
	for _, name := range names {
		var w *workload
		for i := range workloads {
			if workloads[i].name == name {
				w = &workloads[i]
			}
		}
		if w == nil {
			return 0, fmt.Errorf("unknown workload %q", name)
		}
		wr := &wreport{}
		all.Workloads[name] = wr
		for _, traced := range traceModes {
			r, err := w.run(cfg, traced)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				wr.PerLayer = r
				if err := r.trace.writeChrome(filepath.Join(outDir, name+".trace.json")); err != nil {
					return 0, err
				}
			} else {
				wr.EndToEnd = r
			}
			r.Metrics = r.Metrics.complete(defs)
			printMetrics(out, name, defs, r.Metrics)
			for _, n := range r.Notes {
				fmt.Fprintf(out, "%-15s note: %s\n", name, n)
			}
			for _, f := range r.Failures {
				fmt.Fprintf(out, "%-15s FAILED: %s\n", name, f)
			}
			fmt.Fprintf(out, "%-15s attempted=%d failed=%d passes=%d traced=%v\n", name, r.Attempted, r.Failed, r.Passes, traced)
			failed += r.Failed
			last = r
		}
		one := report{Provenance: all.Provenance, Workloads: map[string]*wreport{name: wr}}
		if err := writeJSON(filepath.Join(outDir, name+".json"), one); err != nil {
			return 0, err
		}
	}
	if len(names) > 1 {
		if err := writeJSON(filepath.Join(outDir, "all.json"), all); err != nil {
			return 0, err
		}
	} else if len(traceModes) == 1 {
		fmt.Fprintln(out, resultLine(last))
	}
	return failed, nil
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, load, job-host, job-hybrid, fleet4, serve-openloop")
		seed         = flag.Int64("seed", 1, "seed of the generated dataset and of the arrival streams")
		seconds      = flag.Float64("seconds", 12, "wall seconds the timed passes of a run may fill")
		trace        = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		smoke        = flag.Bool("smoke", false, "tiny configuration that only checks that everything runs")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for <workload>.json and <workload>.trace.json")
		compare      = flag.Bool("compare", false, "compare two output files: bench -compare a.json b.json")
		spec         = flag.String("spec", "BENCHMARK.json", "benchmark declaration -compare takes its bounds from")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}

	cfg := fullConfig(*seed, *seconds)
	if *smoke {
		cfg = smokeConfig(*seed)
	}
	var names []string
	if *workloadFlag == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{*workloadFlag}
	}
	var modes []bool
	switch *trace {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	default:
		modes = []bool{false, true}
	}
	failed, err := runAll(os.Stdout, cfg, names, modes, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
