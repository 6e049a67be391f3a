package job

import (
	"testing"

	"hybridndp/internal/hw"
)

// BenchmarkLoad generates and loads the JOB dataset at scale 0.01 — the whole
// write path: row generation, table encoding, memtable inserts, flushes, SST
// and Bloom builds, compaction and statistics collection.
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		ds, err := LoadSeeded(0.01, hw.Cosmos(), 0)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, n := range ds.Counts {
			rows += n
		}
	}
	b.ReportMetric(float64(rows), "rows/op")
}
