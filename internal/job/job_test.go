package job

import (
	"fmt"
	"testing"

	"hybridndp/internal/hw"
)

func TestQueryCountIs113(t *testing.T) {
	qs := Queries()
	if len(qs) != 113 {
		t.Fatalf("JOB has 113 queries, got %d", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.Name] {
			t.Fatalf("duplicate query name %q", q.Name)
		}
		seen[q.Name] = true
	}
	groups := map[int]bool{}
	for _, q := range qs {
		var g int
		if _, err := fmt.Sscanf(q.Name, "%d", &g); err != nil {
			t.Fatalf("query name %q has no group number", q.Name)
		}
		groups[g] = true
	}
	if len(groups) != 33 {
		t.Fatalf("JOB has 33 groups, got %d", len(groups))
	}
}

func TestLoadTinyAndValidateAllQueries(t *testing.T) {
	ds, err := Load(0.004, hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Counts["title"] == 0 || ds.Counts["cast_info"] == 0 {
		t.Fatalf("counts missing: %+v", ds.Counts)
	}
	for _, q := range Queries() {
		if err := q.Validate(ds.Cat); err != nil {
			t.Errorf("query %s invalid: %v", q.Name, err)
		}
	}
	for _, full := range []bool{true, false} {
		q := Listing2(1000, full)
		if err := q.Validate(ds.Cat); err != nil {
			t.Errorf("listing2 full=%v invalid: %v", full, err)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := Load(0.002, hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(0.002, hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	for tbl, n := range a.Counts {
		if b.Counts[tbl] != n {
			t.Fatalf("non-deterministic counts for %s: %d vs %d", tbl, n, b.Counts[tbl])
		}
	}
	// Same sampled content.
	ta, _ := a.Cat.Table("title")
	tb, _ := b.Cat.Table("title")
	sa := ta.CollectStats()
	sb := tb.CollectStats()
	if len(sa.Sample) != len(sb.Sample) {
		t.Fatal("sample sizes differ")
	}
	for i := range sa.Sample {
		if sa.Sample[i].GetByName("title").Str != sb.Sample[i].GetByName("title").Str {
			t.Fatal("sampled titles differ between identical loads")
		}
	}
}

func TestInfoTypeDomains(t *testing.T) {
	if InfoTypeID("top_250_rank") < 0 || InfoTypeID("rating") < 0 {
		t.Fatal("named info types missing")
	}
	if InfoTypeID("nope") != -1 {
		t.Fatal("unknown info type should be -1")
	}
}
