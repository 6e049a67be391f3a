// Secondaryindex builds a small custom database through the public API (no
// JOB involved) and demonstrates on-device secondary-index processing
// (paper §4.2, Fig. 9): an indexed block-nested-loop join (BNLI) on the
// device resolves join keys through the secondary LSM tree into primary-key
// seeks, against the scan-based BNL alternative.
package main

import (
	"fmt"
	"log"

	hybridndp "hybridndp"
	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/expr"
	"hybridndp/internal/hw"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

func main() {
	sys, err := hybridndp.New(hw.Cosmos())
	if err != nil {
		log.Fatal(err)
	}

	// Table A: orders(id, customer_id, amount) with a secondary index on
	// customer_id. Table B: customers(id, region).
	orders := table.MustSchema("orders", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "customer_id", Type: table.Int32, Size: 4},
		{Name: "amount", Type: table.Int32, Size: 4},
	}, "id", table.SecondaryIndex{Name: "idx_customer", Column: "customer_id"})
	customers := table.MustSchema("customers", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "region", Type: table.Char, Size: 8},
	}, "id")

	to, err := sys.Catalog.CreateTable(orders)
	if err != nil {
		log.Fatal(err)
	}
	tc, err := sys.Catalog.CreateTable(customers)
	if err != nil {
		log.Fatal(err)
	}

	// 20k customers in 2000 fine-grained regions (10 each), 200k orders —
	// so a region filter selects ~10 customers with ~100 orders total: the
	// selective-probe case where index lookups beat scanning (the paper's
	// insight: scans win at low selectivity, key-lookups at high).
	const nCustomers, nOrders = 20000, 200000
	for i := int32(1); i <= nCustomers; i++ {
		if err := tc.Insert([]table.Value{
			table.IntVal(i), table.StrVal(fmt.Sprintf("r%04d", i/10)),
		}); err != nil {
			log.Fatal(err)
		}
	}
	for i := int32(1); i <= nOrders; i++ {
		if err := to.Insert([]table.Value{
			table.IntVal(i), table.IntVal(1 + (i*7919)%nCustomers), table.IntVal(10 + i%500),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := to.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := tc.Flush(); err != nil {
		log.Fatal(err)
	}

	// SELECT COUNT(*) FROM customers c, orders o
	// WHERE c.region = 'r0042' AND o.customer_id = c.id;
	q := &query.Query{
		Name:   "orders-by-region",
		Tables: []query.TableRef{{Alias: "c", Table: "customers"}, {Alias: "o", Table: "orders"}},
		Filters: map[string]expr.Pred{
			"c": expr.Cmp{Col: "region", Op: expr.Eq, Val: table.StrVal("r0042")},
		},
		Joins:      []query.JoinCond{{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"}},
		Aggregates: []query.Aggregate{{Func: query.Count, Star: true, As: "orders"}},
	}

	plan, err := sys.Optimizer.BuildPlan(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", plan)

	// Force the device join algorithm: scan-based BNL vs the in-situ
	// secondary-index BNLI (the Fig. 9 two-stage seek).
	force := func(jt exec.JoinType) *exec.Plan {
		p := plan.Clone() // the optimizer's plan is shared and read-only
		st := &p.Steps[0]
		st.Type = jt
		if jt == exec.BNLI {
			// Join column on the right (orders) side is customer_id, which
			// the idx_customer secondary index covers.
			st.RightIndexIsPK = false
			st.RightIndex = "idx_customer"
		}
		return p
	}

	for _, v := range []struct {
		label string
		plan  *exec.Plan
		strat coop.Strategy
	}{
		{"host (native stack)", plan, coop.Strategy{Kind: coop.HostNative}},
		{"device BNL  (scan-based)", force(exec.BNL), coop.Strategy{Kind: coop.NDPOnly}},
		{"device BNLI (secondary index)", force(exec.BNLI), coop.Strategy{Kind: coop.NDPOnly}},
	} {
		rep, err := sys.Executor.Run(v.plan, v.strat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-30s %9.3f ms  -> %s = %s\n",
			v.label, rep.Elapsed.Milliseconds(), rep.Result.Columns[0], rep.Result.Rows[0][0])
	}
	fmt.Println("\nThe BNLI path seeks only matching records through the secondary LSM")
	fmt.Println("tree (secondary key → primary key → record, paper Fig. 9) instead of")
	fmt.Println("streaming the whole orders table through the device join.")
}
