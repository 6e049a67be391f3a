// Quickstart: load a small Join-Order-Benchmark dataset, let the hybridNDP
// optimizer decide how to execute a query, and compare the automated choice
// against the traditional host-only execution.
package main

import (
	"fmt"
	"log"

	hybridndp "hybridndp"
	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/sql"
)

func main() {
	// Open a system over the simulated COSMOS+ smart-storage device and
	// load JOB at 2% scale (~80k rows) — enough to see the trade-offs.
	sys, err := hybridndp.OpenJOB(0.02, hw.Cosmos())
	if err != nil {
		log.Fatal(err)
	}

	q := job.QueryByName("1a")
	text, err := sql.Render(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(text)
	fmt.Println()

	// hybridNDP mode: the cost model computes the split points, the target
	// cost, and picks host-only / full NDP / hybrid-Hk automatically.
	rep, d, err := sys.RunAuto(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer chose %s: %s\n", d.StrategyLabel(), d.Reason)
	fmt.Printf("hybridNDP execution: %8.3f ms (%d result rows, %d intermediate batches)\n",
		rep.Elapsed.Milliseconds(), rep.Result.RowCount, rep.Batches)

	// Baseline: the same plan on the traditional host-only stack.
	host, err := sys.Run(q, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host-only execution:  %8.3f ms\n", host.Elapsed.Milliseconds())
	fmt.Printf("speedup: %.2fx\n", float64(host.Elapsed)/float64(rep.Elapsed))

	// Both produce identical results.
	fmt.Println("\nresult:")
	fmt.Println(" ", rep.Result.Columns)
	for _, row := range rep.Result.Rows {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = v.String()
		}
		fmt.Println(" ", vals)
	}
}
