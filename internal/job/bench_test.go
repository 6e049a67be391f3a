package job

import (
	"fmt"
	"testing"

	"hybridndp/internal/hw"
)

// BenchmarkLoad generates and loads the JOB dataset — the whole write path in
// its one pipelined pass: row generation and encoding, and, overlapping it,
// each finished table's bulk load (segment radix sorts, SST and Bloom builds,
// compaction) and statistics collection. At scale 0.01 every column family
// fits one segment; at 0.05 the largest (cast_info's data family) is cut into
// two SSTs.
func BenchmarkLoad(b *testing.B) {
	for _, scale := range []float64{0.01, 0.05} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				ds, err := LoadSeeded(scale, hw.Cosmos(), 0)
				if err != nil {
					b.Fatal(err)
				}
				rows = 0
				for _, n := range ds.Counts {
					rows += n
				}
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
