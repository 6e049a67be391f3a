package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// keyCols is the layout of both sides of the key-representation tests and
// benchmarks: two nullable Int32 join columns and a nullable CHAR one.
var keyCols = []table.Column{
	{Name: "id", Type: table.Int32, Size: 4},
	{Name: "a", Type: table.Int32, Size: 4, Nullable: true},
	{Name: "b", Type: table.Int32, Size: 4, Nullable: true},
	{Name: "s", Type: table.Char, Size: 16, Nullable: true},
}

// keyCatalog declares tables l and r over keyCols. They stay empty: the joins
// under test take their inner rows through AppendInner and their
// outer tuples through MakeTuples.
func keyCatalog(t testing.TB) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog(kv.Open(flash.New(hw.Cosmos(), 0), lsm.DefaultConfig()))
	for _, name := range []string{"l", "r"} {
		if _, err := cat.CreateTable(table.MustSchema(name, keyCols, "id")); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// keyPlan joins l with r on the given column pairs (left column, right column).
func keyPlan(pairs ...[2]string) *Plan {
	q := &query.Query{Name: "k", Tables: []query.TableRef{{Alias: "l", Table: "l"}, {Alias: "r", Table: "r"}}}
	step := JoinStep{Right: AccessPath{Ref: q.Tables[1]}, Type: BNL}
	for _, p := range pairs {
		step.Conds = append(step.Conds, BoundCond{LeftPos: 0, LeftCol: p[0], RightCol: p[1]})
	}
	return &Plan{Query: q, Driving: AccessPath{Ref: q.Tables[0]}, Steps: []JoinStep{step}}
}

// loadKeyTable bulk-loads rows, keyRow encodings in ascending id order, into
// the catalog's table name.
func loadKeyTable(t testing.TB, cat *table.Catalog, name string, rows [][]byte) {
	t.Helper()
	tab, err := cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.BulkLoad(slices.Concat(rows...)); err != nil {
		t.Fatal(err)
	}
}

// keySchema lays rows of keyCols out (l's and r's schemas are copies of it).
var keySchema = table.MustSchema("k", keyCols, "id")

// keyRow encodes one row of keyCols.
func keyRow(t testing.TB, id int32, a, b, s table.Value) []byte {
	t.Helper()
	row, err := keySchema.AppendRow(nil, []table.Value{table.IntVal(id), a, b, s})
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// benchKeyRows builds n rows whose keys are drawn from distinct values, so a
// key recurs n/distinct times on average.
func benchKeyRows(b *testing.B, n, distinct int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]byte, n)
	for i := range rows {
		k := int32(rng.Intn(distinct))
		rows[i] = keyRow(b, int32(i), table.IntVal(k), table.IntVal(k%7), table.StrVal(fmt.Sprintf("key-%d", k)))
	}
	return rows
}

var benchKeyPlans = []struct {
	name string
	plan *Plan
}{
	{"int1", keyPlan([2]string{"a", "a"})},
	{"int2", keyPlan([2]string{"a", "a"}, [2]string{"b", "b"})},
	{"char", keyPlan([2]string{"s", "s"})},
}

// BenchmarkHashInner times the hash build alone — 20,000 inner rows over 5,000
// distinct keys into a warm scratch — for one and two Int32 conditions (the
// integer key representation) and a CHAR(16) key (encoded bytes).
func BenchmarkHashInner(b *testing.B) {
	cat := keyCatalog(b)
	inner := benchKeyRows(b, 20000, 5000, 1)
	for _, k := range benchKeyPlans {
		b.Run(k.name, func(b *testing.B) {
			e := hostEngine(cat)
			pl, err := e.StartPipeline(k.plan)
			if err != nil {
				b.Fatal(err)
			}
			build := func() {
				e.Scratch.Release()
				pl.inner[0] = innerState{}
				e.AppendInner(pl, 0, inner)
			}
			build() // grows the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
	}
}

// BenchmarkProbe times the probe alone: 20,000 outer tuples, half of them
// matching, against a built table of 5,000 rows with distinct keys.
func BenchmarkProbe(b *testing.B) {
	cat := keyCatalog(b)
	inner := benchKeyRows(b, 5000, 1<<30, 2)
	outer := append(benchKeyRows(b, 10000, 1<<30, 3), inner...)
	outer = append(outer, inner...)
	rand.New(rand.NewSource(4)).Shuffle(len(outer), func(i, j int) { outer[i], outer[j] = outer[j], outer[i] })
	for _, k := range benchKeyPlans {
		if k.name == "int2" {
			continue
		}
		b.Run(k.name, func(b *testing.B) {
			e := hostEngine(cat)
			pl, err := e.StartPipeline(k.plan)
			if err != nil {
				b.Fatal(err)
			}
			e.AppendInner(pl, 0, inner)
			left := pl.MakeTuples(outer)
			st := &e.Scratch.main
			mark := st.mark()
			probe := func() {
				// Drop the previous output list and rewind the arena to it.
				st.rewind(mark)
				out, err := e.JoinStep(pl, 0, left)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != 2*len(inner) {
					b.Fatalf("probe matched %d tuples, want %d", len(out), 2*len(inner))
				}
			}
			probe() // grows the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe()
			}
		})
	}
}

// BenchmarkBNL times a buffered join as a host-native run executes one
// (RunPlan): scan l, scan r's 20,000 inner rows over 5,000 distinct keys,
// hash what the probe needs, probe, count. 16 probing tuples, at most 1/8 of
// the inner side, fill a probe-keyed table; 16,384 hash the whole inner side.
func BenchmarkBNL(b *testing.B) {
	inner := benchKeyRows(b, 20000, 5000, 1)
	for _, probes := range []int{16, 16384} {
		b.Run(fmt.Sprintf("probes=%d", probes), func(b *testing.B) {
			cat := keyCatalog(b)
			loadKeyTable(b, cat, "r", inner)
			loadKeyTable(b, cat, "l", benchKeyRows(b, probes, 5000, 2))
			p := keyPlan([2]string{"a", "a"})
			p.Aggregates = []query.Aggregate{{Func: query.Count, Star: true, As: "n"}}
			e := hostEngine(cat)
			e.Scratch = &Scratch{}
			run := func() {
				e.Scratch.Release()
				res, err := e.RunPlan(p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][0].Int == 0 {
					b.Fatal("the join matched nothing")
				}
			}
			run() // grows the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
