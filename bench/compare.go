package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload × end-to-end metric present in both
// files, both values, the ratio b/a with its base, the bound, and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	worse       it is
//	unresolved  either run's own spread is wider than the bound, so the pair
//	            cannot tell
//
// It returns the number of "worse" rows.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (int, error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return 0, err
	}
	var a, b report
	if err := readJSON(aPath, &a); err != nil {
		return 0, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return 0, err
	}
	var names []string
	for name, wa := range a.Workloads {
		if wb := b.Workloads[name]; wb != nil && wa.EndToEnd != nil && wb.EndToEnd != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("%s and %s share no workload with end-to-end metrics", aPath, bPath)
	}
	fmt.Fprintf(w, "a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n",
		aPath, a.Provenance.Commit, a.Provenance.Seed, bPath, b.Provenance.Commit, b.Provenance.Seed)
	fmt.Fprintf(w, "%-15s %-27s %14s %14s %-6s %10s %7s  %s\n", "workload", "metric", "a", "b", "unit", "b/a", "bound", "verdict")
	worse := 0
	for _, name := range names {
		ma, mb := a.Workloads[name].EndToEnd.Metrics, b.Workloads[name].EndToEnd.Metrics
		for _, d := range spec.EndToEnd {
			va, oka := ma[d.Name]
			vb, okb := mb[d.Name]
			if !oka || !okb || va.Value == 0 {
				continue
			}
			ratio := vb.Value / va.Value
			worsening := ratio - 1 // share of a by which b is worse
			if d.Better == "higher" {
				worsening = 1 - ratio
			}
			verdict := "ok"
			switch {
			case max(va.Spread, vb.Spread) > d.Bound:
				verdict = "unresolved"
			case worsening > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-15s %-27s %14.6g %14.6g %-6s %9.4fx %6.1f%%  %s\n",
				name, d.Name, va.Value, vb.Value, d.Unit, ratio, 100*d.Bound, verdict)
		}
	}
	return worse, nil
}
