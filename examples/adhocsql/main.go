// Adhocsql runs a free-form SQL query (the JOB dialect) through the full
// hybridNDP pipeline: parse → validate → plan → cost-model decision →
// cooperative execution, comparing the automated choice against every
// alternative.
package main

import (
	"flag"
	"fmt"
	"log"

	hybridndp "hybridndp"
	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/sql"
)

const defaultQuery = `
SELECT MIN(t.title), MIN(mi.info)
FROM title AS t, movie_info AS mi, movie_keyword AS mk,
     keyword AS k, info_type AS it
WHERE k.keyword = 'superhero'
  AND it.info = 'genres'
  AND mi.info IN ('Action', 'Sci-Fi')
  AND t.production_year > 2000
  AND k.id = mk.keyword_id
  AND t.id = mk.movie_id
  AND t.id = mi.movie_id
  AND it.id = mi.info_type_id
  AND mk.movie_id = mi.movie_id;`

func main() {
	sqlText := flag.String("sql", defaultQuery, "SQL text to run")
	scale := flag.Float64("scale", 0.02, "JOB dataset scale")
	flag.Parse()

	sys, err := hybridndp.OpenJOB(*scale, hw.Cosmos())
	if err != nil {
		log.Fatal(err)
	}
	q, err := sys.Query(*sqlText)
	if err != nil {
		log.Fatal(err)
	}
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
	fmt.Println(d.Plan)
	fmt.Printf("\ndecision: %s — %s\n\n", d.StrategyLabel(), d.Reason)

	strategies := []coop.Strategy{{Kind: coop.BlockOnly}, {Kind: coop.HostNative}}
	strategies = append(strategies, coop.Splits(d.Plan)...)
	strategies = append(strategies, coop.Strategy{Kind: coop.NDPOnly})

	chosen := hybridndp.DecisionStrategy(d)
	for _, st := range strategies {
		rep, err := sys.Executor.Run(d.Plan, st)
		if err != nil {
			fmt.Printf("  %-7s error: %v\n", st, err)
			continue
		}
		marker := ""
		if st == chosen {
			marker = "  ← optimizer's choice"
		}
		fmt.Printf("  %-7s %9.3f ms%s\n", st, rep.Elapsed.Milliseconds(), marker)
	}
}
