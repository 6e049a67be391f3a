package fleet

import (
	"testing"

	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
)

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
