// Command hybridndp plans and executes one JOB query under a chosen
// execution strategy, printing the physical plan, the optimizer's cost
// picture and split decision, and the cooperative-execution timeline.
//
// Usage:
//
//	hybridndp -query 8c                 # optimizer decides (hybridNDP mode)
//	hybridndp -query 8c -strategy H3    # force split H3
//	hybridndp -query 17b -strategy ndp  # force full offload
//	hybridndp -query 1a -strategy sweep # run every strategy and compare
package main

import (
	"flag"
	"fmt"
	"os"

	hybridndp "hybridndp"
	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	queryPkg "hybridndp/internal/query"
	"hybridndp/internal/sql"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.05, "JOB dataset scale (1.0 ≈ 3.9M rows)")
		queryArg = flag.String("query", "8c", "JOB query name (1a..33c)")
		sqlArg   = flag.String("sql", "", "ad-hoc SQL text (overrides -query)")
		strategy = flag.String("strategy", "auto", "auto | block | native | ndp | H<k> | sweep")
		showPlan = flag.Bool("plan", true, "print the physical plan")
		timeline = flag.Bool("timeline", false, "print the batch timeline and breakdowns")
	)
	flag.Parse()

	fmt.Printf("loading JOB at scale %g ...\n", *scale)
	sys, err := hybridndp.OpenJOB(*scale, hw.Cosmos())
	if err != nil {
		fatal(err)
	}

	var q *queryPkg.Query
	if *sqlArg != "" {
		q, err = sys.Query(*sqlArg)
		if err != nil {
			fatal(err)
		}
	} else {
		q = job.QueryByName(*queryArg)
		if q == nil {
			fmt.Fprintf(os.Stderr, "unknown query %q (try 1a..33c)\n", *queryArg)
			os.Exit(2)
		}
	}
	text, err := sql.Render(q)
	if err != nil {
		fatal(err)
	}
	fmt.Println(text)

	d, err := sys.Decide(q)
	if err != nil {
		fatal(err)
	}
	if *showPlan {
		fmt.Println()
		fmt.Println(d.Plan)
	}
	fmt.Printf("\ncost model: host=%.0f ndp=%.0f c_target=%.0f best split=H%d\n",
		d.Costs.HostTotal, d.Costs.NDPTotal, d.Costs.CTarget, d.Costs.BestSplit)
	fmt.Printf("decision: %s — %s\n\n", d.StrategyLabel(), d.Reason)

	run := func(st coop.Strategy) {
		rep, err := sys.Executor.Run(d.Plan, st)
		if err != nil {
			fmt.Printf("  %-7s error: %v\n", st, err)
			return
		}
		fmt.Printf("  %-7s %10.3fms  rows=%d batches=%d transferred=%dB\n",
			st, rep.Elapsed.Milliseconds(), rep.Result.RowCount, rep.Batches, rep.TransferredBytes)
		if *timeline && len(rep.Timeline) > 0 {
			for _, ev := range rep.Timeline {
				fmt.Printf("      batch %2d ready=%8.2fms fetched=%8.2fms done=%8.2fms rows=%d\n",
					ev.Idx, float64(ev.DeviceReady)/1e6, float64(ev.HostFetched)/1e6,
					float64(ev.HostDone)/1e6, ev.Rows)
			}
		}
	}

	switch *strategy {
	case "auto":
		run(hybridndp.DecisionStrategy(d))
	case "sweep":
		run(coop.Strategy{Kind: coop.BlockOnly})
		run(coop.Strategy{Kind: coop.HostNative})
		splits, err := sys.Splits(q)
		if err == nil {
			for _, st := range splits {
				run(st)
			}
		}
		run(coop.Strategy{Kind: coop.NDPOnly})
	default:
		st, err := coop.ParseStrategy(*strategy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -strategy %q\n", *strategy)
			os.Exit(2)
		}
		run(st)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridndp:", err)
	os.Exit(1)
}
