package lsm

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hybridndp/internal/hw"
)

// bulkConfig is a tree small enough that a few hundred entries rotate
// memtables, compact C1 and push a level down.
func bulkConfig(memBytes int64) Config {
	return Config{MemTableBytes: memBytes, MaxL1Files: 2, LevelRatio: 3, BaseLevelBytes: 8 << 10}
}

// putThenFlush is BulkLoad's reference: Put (Delete for a tombstone) per entry
// in slice order, then Flush.
func putThenFlush(t testing.TB, tr *Tree, entries []Entry) {
	t.Helper()
	for _, e := range entries {
		var err error
		if e.Tombstone {
			err = tr.Delete(e.Key)
		} else {
			err = tr.Put(e.Key, e.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// bulkEntries decodes a fuzz input into a stream of unique keys in arrival
// order: records [op, klen, key…] with klen%16 key bytes; op bit 0 makes the
// entry a tombstone, and its value is op repeated 3×(op>>1) times (a tombstone
// carries one too, which BulkLoad must ignore as Delete does). A key seen
// before is skipped.
func bulkEntries(ops []byte) []Entry {
	var entries []Entry
	seen := map[string]bool{}
	for len(ops) >= 2 {
		op, klen := ops[0], min(int(ops[1]%16), len(ops)-2)
		k := ops[2 : 2+klen : 2+klen]
		ops = ops[2+klen:]
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		entries = append(entries, Entry{Key: k, Value: bytes.Repeat([]byte{op}, 3*int(op>>1)), Tombstone: op&1 != 0})
	}
	return entries
}

// FuzzBulkLoadMatchesPuts checks BulkLoad's contract: for a stream of unique
// keys in any order, tombstones included, it leaves a tree and a flash module
// indistinguishable from Put per entry plus Flush — every SST's bytes in
// Placement order, Stats, flash.Stats and the space used, the memtable seed
// counter, a full Scan, and Get of every key — and does not touch the
// caller's slice. mem picks MemTableBytes from 2 to 64 KiB; with MaxL1Files 2
// and an 8 KiB C2 the seeds rotate memtables, compact C1 and push C2 down. The
// seed corpus under testdata/fuzz/FuzzBulkLoadMatchesPuts is named after what
// each entry exercises.
func FuzzBulkLoadMatchesPuts(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, mem uint8) {
		if len(ops) > 8192 {
			t.Skip("entry stream longer than any seed needs")
		}
		entries := bulkEntries(ops)
		cfg := bulkConfig(int64(2+int(mem)%63) << 10)
		ref := NewTree(testFlash(), cfg)
		putThenFlush(t, ref, entries)
		got := NewTree(testFlash(), cfg)
		arrival := slices.Clone(entries)
		if err := got.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if a := arrival[i]; !bytes.Equal(e.Key, a.Key) || !bytes.Equal(e.Value, a.Value) || e.Tombstone != a.Tombstone {
				t.Fatalf("BulkLoad changed entry %d of the caller's slice", i)
			}
		}
		if a, b := ref.fl.Stats(), got.fl.Stats(); a != b || ref.fl.Used() != got.fl.Used() {
			t.Fatalf("flash after Put+Flush %+v used %d; after BulkLoad %+v used %d", a, ref.fl.Used(), b, got.fl.Used())
		}
		if a, b := ref.Stats(), got.Stats(); a != b || ref.memSeq != got.memSeq {
			t.Fatalf("Put+Flush: %+v, %d memtables; BulkLoad: %+v, %d", a, ref.memSeq, b, got.memSeq)
		}
		compareSSTs(t, ref, got)
		var live []Entry
		for _, e := range entries {
			if !e.Tombstone {
				live = append(live, e)
			}
		}
		slices.SortFunc(live, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
		for name, tr := range map[string]*Tree{"Put+Flush": ref, "BulkLoad": got} {
			scanned := drain(tr.Scan(nil, nil, Access{}), -1, false)
			if len(scanned) != len(live) {
				t.Fatalf("%s: scan returned %d entries, %d are live", name, len(scanned), len(live))
			}
			for i, e := range scanned {
				if !bytes.Equal(e.Key, live[i].Key) || !bytes.Equal(e.Value, live[i].Value) {
					t.Fatalf("%s: scan position %d = %q→%q, want %q→%q", name, i, e.Key, e.Value, live[i].Key, live[i].Value)
				}
			}
		}
		for _, e := range entries {
			v, ok, err := got.Get(e.Key, Access{})
			wv, wok, werr := ref.Get(e.Key, Access{})
			if err != nil || werr != nil || ok != wok || ok == e.Tombstone || !bytes.Equal(v, wv) {
				t.Fatalf("Get(%q): BulkLoad %q %v %v, Put+Flush %q %v %v (tombstone %v)", e.Key, v, ok, err, wv, wok, werr, e.Tombstone)
			}
		}
	})
}

// compareSSTs requires the two trees to hold byte-identical SSTs, level by
// level, in Placement order.
func compareSSTs(t *testing.T, ref, got *Tree) {
	t.Helper()
	pa, pb := ref.Placement(), got.Placement()
	if len(pa) != len(pb) {
		t.Fatalf("Put+Flush has %d levels, BulkLoad %d", len(pa), len(pb))
	}
	for l := range pa {
		if len(pa[l].SSTs) != len(pb[l].SSTs) || pa[l].MemEntries != pb[l].MemEntries {
			t.Fatalf("level %d: Put+Flush %d SSTs, %d memtable entries; BulkLoad %d, %d",
				l, len(pa[l].SSTs), pa[l].MemEntries, len(pb[l].SSTs), pb[l].MemEntries)
		}
		for i := range pa[l].SSTs {
			a, b := pa[l].SSTs[i].File, pb[l].SSTs[i].File
			ba, _ := ref.fl.ReadAt(a, 0, ref.fl.Size(a), nil, hw.Rates{}, nil)
			bb, _ := got.fl.ReadAt(b, 0, got.fl.Size(b), nil, hw.Rates{}, nil)
			if !bytes.Equal(ba, bb) {
				t.Fatalf("level %d SST %d: %d bytes after Put+Flush, %d different bytes after BulkLoad", l, i, len(ba), len(bb))
			}
		}
	}
}

// TestBulkLoadRefuses covers the input BulkLoad turns away — where the Put
// path would store something else — and the empty load. A refusal writes
// nothing, even when the offending key sits in a later segment.
func TestBulkLoadRefuses(t *testing.T) {
	seg := func(n int, suffix string) []Entry { // n entries of 128 ByteSize bytes
		out := make([]Entry, n)
		for i := range out {
			out[i] = Entry{Key: []byte(string(key(i)) + suffix), Value: make([]byte, 69-len(suffix))}
		}
		return out
	}
	for _, c := range []struct {
		name    string
		prePut  bool
		entries []Entry
		err     string // "" for success
	}{
		{name: "duplicate-in-segment", entries: append(seg(3, ""), Entry{Key: key(1), Value: []byte("again")}), err: `"key00000001" repeats`},
		{name: "duplicate-in-later-segment", entries: append(seg(16, "a"), append(seg(5, "b"), Entry{Key: []byte("key00000002b")})...), err: `"key00000002b" repeats`},
		{name: "duplicate-sorted", entries: []Entry{{Key: key(1)}, {Key: key(1)}}, err: `"key00000001" repeats`},
		{name: "memtable-not-empty", prePut: true, entries: seg(3, ""), err: "1 memtable entries"},
		{name: "empty", entries: nil},
		{name: "repeat-across-segments", entries: append(seg(16, ""), seg(4, "")...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTree(testFlash(), bulkConfig(2<<10))
			if c.prePut {
				if err := tr.Put([]byte("x"), nil); err != nil {
					t.Fatal(err)
				}
			}
			err := tr.BulkLoad(c.entries)
			if c.err == "" {
				if err != nil {
					t.Fatal(err)
				}
				ref := NewTree(testFlash(), bulkConfig(2<<10))
				putThenFlush(t, ref, c.entries)
				compareSSTs(t, ref, tr)
				if len(c.entries) == 0 && (tr.Stats().SSTs != 0 || tr.fl.Stats().BytesWritten != 0) {
					t.Fatalf("empty bulk load wrote %+v", tr.Stats())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("BulkLoad error %v, want one containing %s", err, c.err)
			}
			if w := tr.fl.Stats().BytesWritten; w != 0 {
				t.Fatalf("a refused bulk load wrote %d bytes", w)
			}
		})
	}
}

// TestBulkLoadSegmentsAtByteSize pins the cut rule on a hand-counted input:
// entries of 128 ByteSize bytes into 2 KiB memtables close a segment every 16
// entries, so 40 entries make SSTs of 16, 16 and 8, newest first in C1.
func TestBulkLoadSegmentsAtByteSize(t *testing.T) {
	cfg := bulkConfig(2 << 10)
	cfg.MaxL1Files = 8
	tr := NewTree(testFlash(), cfg)
	entries := make([]Entry, 40)
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(entries)) {
		entries[i] = Entry{Key: key(j), Value: make([]byte, 69)} // 11 + 69 + 48 = 128
	}
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, s := range tr.Placement()[1].SSTs {
		counts = append(counts, s.Count)
	}
	if !slices.Equal(counts, []int{8, 16, 16}) || tr.memSeq != 4 {
		t.Fatalf("C1 SST sizes %v after %d memtables, want [8 16 16] after 4", counts, tr.memSeq)
	}
}
