// Package wallclock forbids wall-clock time sources and the global math/rand
// functions inside the simulation packages. Virtual time must flow through
// vclock.Timeline (paper §4's cooperative timelines): an operator that reads
// time.Now observes the speed of the machine running the simulation, not the
// modelled hardware, and the global math/rand source is both nondeterministic
// across runs (unseeded) and a contended lock under concurrent serving.
// Randomness must come from an injected, seeded *rand.Rand; wall time is
// measured outside the simulation packages (the commands, the benchmark).
//
// internal/hw is the one allow-listed package: the hardware profiler
// legitimately measures wall time to calibrate virtual rates, and marks each
// use with //lint:allow wallclock.
package wallclock

import (
	"go/ast"
	"go/types"

	"hybridndp/internal/analysis"
)

// bannedTime are the time package functions that observe or consume wall time.
var bannedTime = map[string]string{
	"Now":       "read virtual time from a vclock.Timeline",
	"Sleep":     "charge a virtual duration to a vclock.Timeline instead of sleeping",
	"Since":     "subtract vclock.Time instants",
	"Until":     "subtract vclock.Time instants",
	"After":     "model delays on a vclock.Timeline",
	"Tick":      "model periodic work on a vclock.Timeline",
	"NewTimer":  "model delays on a vclock.Timeline",
	"NewTicker": "model periodic work on a vclock.Timeline",
}

// bannedRand are the math/rand top-level functions backed by the global
// locked source.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// Analyzer is the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name:      "wallclock",
	Doc:       "forbid wall-clock time and global math/rand in simulation packages",
	Packages:  analysis.SimPackages,
	AllowIn:   []string{"internal/hw"},
	SkipTests: true,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if hint, bad := bannedTime[sel.Sel.Name]; bad {
					pass.Reportf(call.Pos(), "wall-clock call time.%s in simulation package %s: %s",
						sel.Sel.Name, pass.Path, hint)
				}
			case "math/rand", "math/rand/v2":
				if bannedRand[sel.Sel.Name] {
					pass.Reportf(call.Pos(), "global math/rand call rand.%s in simulation package %s: use an injected seeded *rand.Rand",
						sel.Sel.Name, pass.Path)
				}
			}
			return true
		})
	}
	return nil
}
