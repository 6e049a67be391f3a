// Splitplan walks through the paper's plan-splitting example (§3.4, Fig. 5
// and Fig. 6) on JOB Q1.a: the cumulative device cost c_node at every split
// point H0..Hn, the target cost c_target derived from the hardware model
// (eq. 9–12), and the chosen split — then validates the choice by actually
// executing every split.
package main

import (
	"fmt"
	"log"
	"strings"

	hybridndp "hybridndp"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/sql"
)

func main() {
	sys, err := hybridndp.OpenJOB(0.02, hw.Cosmos())
	if err != nil {
		log.Fatal(err)
	}
	q := job.QueryByName("1a")
	d, err := sys.Decide(q)
	if err != nil {
		log.Fatal(err)
	}

	text, err := sql.Render(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(text)
	fmt.Println()
	fmt.Println("physical plan (join order chosen by the optimizer):")
	fmt.Println(d.Plan)

	sc := d.Costs
	fmt.Printf("\nsplit-point calculation (Fig. 5):\n")
	fmt.Printf("  split_cpu = %.1f%%   split_mem = %.2f%%   c_target = %.0f\n",
		sc.SplitCPU, sc.SplitMem, sc.CTarget)
	fmt.Println("  cumulative device cost per split point:")
	maxC := sc.CNode[len(sc.CNode)-1]
	for k, c := range sc.CNode {
		bar := strings.Repeat("█", int(40*c/maxC))
		marker := " "
		if k == sc.BestSplit {
			marker = "← closest to c_target"
		}
		fmt.Printf("  H%-2d %12.0f %-40s %s\n", k, c, bar, marker)
	}
	fmt.Printf("\ndecision: %s (%s)\n", d.StrategyLabel(), d.Reason)

	fmt.Println("\nvalidation — executing every split:")
	splits, err := sys.Splits(q)
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range splits {
		rep, err := sys.Run(q, st)
		if err != nil {
			fmt.Printf("  %-4s error: %v\n", st, err)
			continue
		}
		fmt.Printf("  %-4s %9.3f ms  (shipped %d B in %d batches)\n",
			st, rep.Elapsed.Milliseconds(), rep.TransferredBytes, rep.Batches)
	}
}
