package lsm

import (
	"fmt"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
)

func loadedTree(b *testing.B, n int, tiered bool) *Tree {
	b.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	cfg := DefaultConfig()
	cfg.MemTableBytes = 64 << 10
	cfg.Tiered = tiered
	tr := NewTree(fl, cfg)
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkMemTablePut(b *testing.B) {
	m := NewMemTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(key(i), val(i))
	}
}

func BenchmarkTreePut(b *testing.B) {
	fl := flash.New(hw.Cosmos(), 0)
	cfg := DefaultConfig()
	cfg.MemTableBytes = 256 << 10
	tr := NewTree(fl, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeGet(b *testing.B) {
	for _, tiered := range []bool{false, true} {
		b.Run(fmt.Sprintf("tiered=%v", tiered), func(b *testing.B) {
			tr := loadedTree(b, 50_000, tiered)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := tr.Get(key(i%50_000), Access{}); err != nil || !ok {
					b.Fatalf("Get: %v %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkTreeScan(b *testing.B) {
	tr := loadedTree(b, 50_000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for it := tr.Scan(nil, nil, Access{}); it.Valid(); it.Next() {
			n++
		}
		if n != 50_000 {
			b.Fatalf("scan found %d", n)
		}
	}
}

func BenchmarkTreeScanWithCache(b *testing.B) {
	tr := loadedTree(b, 50_000, false)
	cache := NewBlockCache(64 << 20)
	ac := Access{Cache: cache}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for it := tr.Scan(nil, nil, ac); it.Valid(); it.Next() {
		}
	}
}

// BenchmarkTreeScanSingleSST scans a bulk-loaded tree — one SST, so one live
// merge source, the shape of every column family the JOB workloads read — and
// touches every value, entry by entry and block run by block run.
func BenchmarkTreeScanSingleSST(b *testing.B) {
	const n = 50_000
	tr := singleSSTTree(b, n)
	for _, cached := range []bool{false, true} {
		for _, runs := range []bool{false, true} {
			b.Run(fmt.Sprintf("cache=%v/runs=%v", cached, runs), func(b *testing.B) {
				var ac Access
				if cached {
					ac.Cache = NewBlockCache(64 << 20)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, size := 0, 0
					it := tr.Scan(nil, nil, ac)
					for ; it.Valid(); it.Next() {
						rows++
						size += len(it.Entry().Value)
						if runs {
							run := it.Run()
							for j := range run {
								size += len(run[j].Value)
							}
							rows += len(run)
							it.Consume(len(run))
						}
					}
					if rows != n || size == 0 || it.Err() != nil {
						b.Fatalf("scan found %d rows, %d bytes, err %v", rows, size, it.Err())
					}
				}
			})
		}
	}
}

func BenchmarkBloomMayContain(b *testing.B) {
	f := NewBloom(100_000)
	for i := 0; i < 100_000; i++ {
		f.Add(key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(key(i % 200_000))
	}
}
