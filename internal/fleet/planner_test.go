package fleet

import (
	"reflect"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/table"
)

// TestDrivingFracsFollowStatistics: a table's per-device shares are counted
// once per statistics object, equal the direct count, and are counted again
// once an Insert has renewed the table's statistics.
func TestDrivingFracsFollowStatistics(t *testing.T) {
	// A dataset of its own: the insert must not reach the other tests.
	ds, err := job.Load(0.004, hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := ds.Cat.Table("keyword")
	if err != nil {
		t.Fatal(err)
	}
	st := kt.CollectStats()
	first := desc.drivingFracs("keyword", st)
	if want := drivingFracs(st.Sample, desc.Parts["keyword"], 4); !reflect.DeepEqual(first, want) {
		t.Fatalf("memoized shares %v, direct count %v", first, want)
	}
	if again := desc.drivingFracs("keyword", st); &again[0] != &first[0] {
		t.Fatal("shares were counted again under unchanged statistics")
	}

	row := make([]table.Value, len(kt.Schema.Columns))
	for i, c := range kt.Schema.Columns {
		switch {
		case c.Name == kt.Schema.PrimaryKey:
			row[i] = table.IntVal(1 << 30)
		case c.Type == table.Int32:
			row[i] = table.IntVal(1)
		default:
			row[i] = table.StrVal("x")
		}
	}
	for i := 0; i < 64; i++ { // enough rows in the last partition to move the sample
		row[0] = table.IntVal(1<<30 + int32(i))
		if err := kt.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	st2 := kt.CollectStats()
	after := desc.drivingFracs("keyword", st2)
	if want := drivingFracs(st2.Sample, desc.Parts["keyword"], 4); !reflect.DeepEqual(after, want) {
		t.Fatalf("shares after the insert %v, direct count %v", after, want)
	}
	if reflect.DeepEqual(after, first) {
		t.Fatalf("shares did not move with the statistics: %v", after)
	}
}

// TestPlanShardsIgnoresDescriptorWarmth: an assignment planned against a
// descriptor that has planned every query before equals one planned against a
// descriptor fresh from Build.
func TestPlanShardsIgnoresDescriptorWarmth(t *testing.T) {
	ds := testDataset(t)
	opt := optimizer.New(ds.Cat, ds.Model)
	warm, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, q := range job.Queries() {
			d, err := opt.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PlanShards(opt, warm, d)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Build(ds.Cat, 4, SchemeRange)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PlanShards(opt, cold, d)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: warm descriptor plans %+v, a fresh one %+v", q.Name, got.Shards, want.Shards)
			}
		}
	}
}

// BenchmarkPlanShards plans the 113 decided JOB queries onto a four-device
// fleet per iteration: what fleet planning adds once the plan is known.
func BenchmarkPlanShards(b *testing.B) {
	ds := testDataset(b)
	opt := optimizer.New(ds.Cat, ds.Model)
	desc, err := Build(ds.Cat, 4, SchemeRange)
	if err != nil {
		b.Fatal(err)
	}
	var decided []*optimizer.Decision
	for _, q := range job.Queries() {
		d, err := opt.Decide(q)
		if err != nil {
			b.Fatal(err)
		}
		decided = append(decided, d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range decided {
			if _, err := PlanShards(opt, desc, d); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(decided)), "ns/query")
}
