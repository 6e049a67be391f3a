package lsm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
)

func loadedTree(b *testing.B, n int) *Tree {
	b.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	cfg := DefaultConfig()
	cfg.SegmentBytes = 64 << 10
	tr := NewTree(fl, cfg)
	load(b, tr, entriesOf(span(0, n, 1), nil))
	return tr
}

// BenchmarkBuildSST encodes and writes one 20,000-entry SST (about 0.6 MB)
// per iteration: data blocks, Bloom filter, index, meta and footer, then the
// re-read of OpenSST.
func BenchmarkBuildSST(b *testing.B) {
	entries := make([]Entry, 20_000)
	for i := range entries {
		entries[i] = Entry{Key: key(i), Value: val(i)}
	}
	fl := flash.New(hw.Cosmos(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := BuildSST(fl, entries, Access{})
		if err != nil {
			b.Fatal(err)
		}
		fl.DeleteFile(s.File())
	}
}

// BenchmarkBulkLoad loads 200,000 unique keys into an empty default-config
// tree, one load per op, in two shapes. keys=random is key%08d in random
// order: the keys tie on their whole 8-byte prefix word in runs of a thousand,
// so the comparison of the tied runs carries the sort. keys=index is the shape
// of cast_info's four secondary indexes: 9-byte [1][value][pk] keys over 50
// values, arriving in PK order — the radix passes order them and every run of
// equal prefixes already ascends.
func BenchmarkBulkLoad(b *testing.B) {
	const n = 200_000
	random := make([]Entry, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		random[i] = Entry{Key: key(j), Value: val(j)}
	}
	index := make([]Entry, n)
	rng := rand.New(rand.NewSource(1))
	for pk := range index {
		k := make([]byte, 9)
		k[0] = 1
		binary.BigEndian.PutUint32(k[1:], uint32(1+rng.Intn(50))^0x80000000)
		binary.BigEndian.PutUint32(k[5:], uint32(pk+1)^0x80000000)
		index[pk] = Entry{Key: k}
	}
	for _, c := range []struct {
		name    string
		entries []Entry
	}{{"keys=random", random}, {"keys=index", index}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				load(b, NewTree(flash.New(hw.Cosmos(), 0), DefaultConfig()), c.entries)
			}
		})
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := loadedTree(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := tr.Get(key(i%50_000), Access{}); err != nil || !ok {
			b.Fatalf("Get: %v %v", ok, err)
		}
	}
}

func BenchmarkTreeScan(b *testing.B) {
	tr := loadedTree(b, 50_000)
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
	tr := loadedTree(b, 50_000)
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
// touches every value, entry by entry and block run by block run, each scan on
// a new iterator; reused-iter restarts one iterator in place instead, as an
// engine's scratch does.
func BenchmarkTreeScanSingleSST(b *testing.B) {
	const n = 50_000
	tr := singleSSTTree(b, n)
	type mode struct{ cached, runs, reused bool }
	var modes []mode
	for _, cached := range []bool{false, true} {
		for _, runs := range []bool{false, true} {
			modes = append(modes, mode{cached, runs, false})
		}
	}
	modes = append(modes, mode{false, true, true})
	for _, m := range modes {
		name := fmt.Sprintf("cache=%v/runs=%v", m.cached, m.runs)
		if m.reused {
			name = "reused-iter/" + name
		}
		b.Run(name, func(b *testing.B) {
			var ac Access
			if m.cached {
				ac.Cache = NewBlockCache(64 << 20)
			}
			reused := &TreeIter{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, size := 0, 0
				it := reused
				if m.reused {
					tr.ScanInto(it, nil, nil, ac)
				} else {
					it = tr.Scan(nil, nil, ac)
				}
				for ; it.Valid(); it.Next() {
					rows++
					size += len(it.Entry().Value)
					if m.runs {
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
