package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
)

// bulkConfig is a tree small enough that a few hundred entries make several
// segments, compact C1 and push a level down.
func bulkConfig(segBytes int64) Config {
	return Config{SegmentBytes: segBytes, MaxL1Files: 2, LevelRatio: 3, BaseLevelBytes: 8 << 10}
}

// eachRecord walks a fuzz input as records [op, klen, key…] with klen%16 key
// bytes; the entry a record makes is a tombstone when op bit 0 is set, and its
// value is op repeated 3×(op>>1) times (a tombstone carries one too, which
// BulkLoad must ignore).
func eachRecord(ops []byte, f func(e Entry, klen byte)) {
	for len(ops) >= 2 {
		op, klen := ops[0], ops[1]
		n := min(int(klen%16), len(ops)-2)
		k := ops[2 : 2+n : 2+n]
		ops = ops[2+n:]
		f(Entry{Key: k, Value: bytes.Repeat([]byte{op}, 3*int(op>>1)), Tombstone: op&1 != 0}, klen)
	}
}

// bulkEntries decodes a fuzz input into a stream of unique keys in arrival
// order, skipping a key seen before: the one load the putDigests record.
func bulkEntries(ops []byte) []Entry {
	var entries []Entry
	seen := map[string]bool{}
	eachRecord(ops, func(e Entry, _ byte) {
		if !seen[string(e.Key)] {
			seen[string(e.Key)] = true
			entries = append(entries, e)
		}
	})
	return entries
}

// bulkLoads decodes a fuzz input into a sequence of loads: a record whose klen
// has bit 7 set, or whose key the current load already holds, starts the next
// load.
func bulkLoads(ops []byte) [][]Entry {
	var loads [][]Entry
	var cur []Entry
	seen := map[string]bool{}
	eachRecord(ops, func(e Entry, klen byte) {
		if klen&0x80 != 0 || seen[string(e.Key)] {
			loads, cur, seen = append(loads, cur), nil, map[string]bool{}
		}
		seen[string(e.Key)] = true
		cur = append(cur, e)
	})
	return append(loads, cur)
}

// FuzzBulkLoadMatchesModel checks BulkLoad against a sorted-map model across
// several loads into one tree: the later load wins per key, and a tombstone
// hides its key. After every load, Get of every key any load named, a full
// Scan and a full View.ScanInto must agree with the model, and the load must
// not have touched the caller's slice. mem picks SegmentBytes from 2 to 64 KiB;
// with MaxL1Files 2 and an 8 KiB C2 the seeds cut several segments, compact C1
// and push C2 down. The seeds under testdata/fuzz/FuzzBulkLoadMatchesModel are
// named after what each exercises. Two are several loads:
// later-loads-shadow-and-delete, and empty-key-shadowed-in-c2, where the
// newest C1 file starts at the empty key when C1 compacts into a C2 that
// already holds it. The others are one load each, and
// TestBulkLoadMatchesPuts pins what those store, except for
// radix-several-digits: one 450-key segment in random order whose prefix words
// differ in all eight bytes (the radix sort makes every pass), with keys that
// tie on the whole word and keys shorter than it, added after the Put path
// that recorded the others was gone.
func FuzzBulkLoadMatchesModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, mem uint8) {
		if len(ops) > 8192 {
			t.Skip("entry stream longer than any seed needs")
		}
		tr := NewTree(testFlash(), bulkConfig(int64(2+int(mem)%63)<<10))
		model := map[string][]byte{}
		var named [][]byte
		for n, entries := range bulkLoads(ops) {
			arrival := slices.Clone(entries)
			load(t, tr, entries)
			for i, e := range entries {
				if a := arrival[i]; !bytes.Equal(e.Key, a.Key) || !bytes.Equal(e.Value, a.Value) || e.Tombstone != a.Tombstone {
					t.Fatalf("load %d: BulkLoad changed entry %d of the caller's slice", n, i)
				}
				if e.Tombstone {
					delete(model, string(e.Key))
				} else {
					model[string(e.Key)] = e.Value
				}
				named = append(named, e.Key)
			}
			want := modelRange(model, nil, nil)
			checkEntries(t, fmt.Sprintf("load %d: Scan", n), drain(tr.Scan(nil, nil, Access{}), -1, false), want)
			checkEntries(t, fmt.Sprintf("load %d: View.ScanInto", n), drain(viewScan(tr.View(), nil, nil, Access{}), -1, false), want)
			for _, k := range named {
				v, ok, err := tr.Get(k, Access{})
				mv, mok := model[string(k)]
				if err != nil || ok != mok || !bytes.Equal(v, mv) {
					t.Fatalf("load %d: Get(%q) = %q %v %v, model %q %v", n, k, v, ok, err, mv, mok)
				}
			}
			if err := tr.SanityCheck(); err != nil {
				t.Fatalf("load %d: %v", n, err)
			}
		}
	})
}

// putDigest is what Put per entry followed by Flush stored for one input,
// recorded before that single-row write path was deleted: treeDigest of the
// SSTs, the tree's Stats, the flash counters and the space used.
type putDigest struct {
	digest string
	stats  Stats
	flash  flash.Stats
	used   int64
}

// putDigests holds the record for each single-load seed of
// FuzzBulkLoadMatchesModel (decoded by bulkEntries) and for the successful
// loads of TestBulkLoadRefuses.
var putDigests = map[string]putDigest{
	"large-values-64k":               {"a332d045e75f989bd0c56b5b11d2c7d67cf54efdf05aab63257117933971db4f", Stats{DataBytes: 156400, Levels: 3, SSTs: 2}, flash.Stats{BytesRead: 1272450, BytesWritten: 718403, PageReads: 211, RandomReads: 14, FilesLive: 2}, 180224},
	"prefix-ties-short-keys":         {"ed6a80ca67d596ee1e71fb7f796c6df9bdf2294fe5637101421ac147fe6e4e39", Stats{DataBytes: 6394, Levels: 3, SSTs: 4}, flash.Stats{BytesRead: 16461, BytesWritten: 11919, PageReads: 10, RandomReads: 10, FilesLive: 4}, 65536},
	"segment-ends-on-last-entry":     {"671fbac31c453442e9f31879fb0067ba2a981af460e2cd829055381108804f5c", Stats{DataBytes: 53425, Levels: 3, SSTs: 4}, flash.Stats{BytesRead: 466997, BytesWritten: 263280, PageReads: 87, RandomReads: 48, FilesLive: 4}, 65536},
	"shuffled-rotations-compactions": {"b5cce8413d51189122338ff995fbe94f462d9052a65e73383d50b0621d6ff5cf", Stats{DataBytes: 14496, Levels: 4, SSTs: 6}, flash.Stats{BytesRead: 87376, BytesWritten: 52600, PageReads: 39, RandomReads: 34, FilesLive: 6}, 98304},
	"sorted-single-sst":              {"a951d7b53576756cbdca04a8b8e9b37de56a2365b19d45799fb5e899df0eba22", Stats{DataBytes: 4140, Levels: 2, SSTs: 1}, flash.Stats{BytesRead: 4329, BytesWritten: 4329, PageReads: 1, RandomReads: 1, FilesLive: 1}, 16384},
	"tombstones-shuffled":            {"edfd1cdf6f8c30aa3eb1c13eaed84ff62787c74ae3fa145d151f6c90fe60fa24", Stats{DataBytes: 5600, Levels: 2, SSTs: 1}, flash.Stats{BytesRead: 18350, BytesWritten: 12350, PageReads: 7, RandomReads: 7, FilesLive: 1}, 16384},

	"empty":                  {"2aa35a355da0a226631f97a91b0c93bc9785ee3e2cc8ffc9a4383736c21fa72c", Stats{Levels: 1}, flash.Stats{}, 0},
	"repeat-across-segments": {"20497cd1edf20ff3620ec9faa511d3aac9a9ffe127f4fd0f020b4cc7204d600b", Stats{DataBytes: 1660, Levels: 2, SSTs: 2}, flash.Stats{BytesRead: 1946, BytesWritten: 1946, PageReads: 2, RandomReads: 2, FilesLive: 2}, 32768},
}

// treeDigest hashes the tree's SSTs level by level, each level's number ahead
// of its files (C0, always empty, first).
func treeDigest(t *testing.T, tr *Tree) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprint(h, "L0\x00")
	for i, lvl := range tr.View().Levels() {
		fmt.Fprintf(h, "L%d\x00", i+1)
		for _, s := range lvl {
			b, err := tr.fl.ReadAt(s.file, 0, tr.fl.Size(s.file), nil, hw.Rates{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPutDigest requires tr to hold what Put+Flush stored for the named
// input. The counters are read before hashing, whose reads would move them.
func checkPutDigest(t *testing.T, name string, tr *Tree) {
	t.Helper()
	want, ok := putDigests[name]
	if !ok {
		t.Fatalf("no Put+Flush record for %s", name)
	}
	got := putDigest{stats: tr.Stats(), flash: tr.fl.Stats(), used: tr.fl.Used()}
	got.digest = treeDigest(t, tr)
	if got != want {
		t.Fatalf("%s: BulkLoad stored %+v; Put+Flush stored %+v", name, got, want)
	}
}

// readSeed decodes a FuzzBulkLoadMatchesModel seed file: the header line, a
// []byte and a byte literal.
func readSeed(t *testing.T, name string) (ops []byte, mem uint8) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBulkLoadMatchesModel", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a two-argument seed file", name)
	}
	o, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	m, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "byte("), ")"))
	r, _ := utf8.DecodeRuneInString(m)
	if err1 != nil || err2 != nil || r > 0xff {
		t.Fatalf("%s: %v, %v, byte %q", name, err1, err2, m)
	}
	return []byte(o), uint8(r)
}

// TestBulkLoadMatchesPuts: for every single-load seed of
// FuzzBulkLoadMatchesModel — unique keys in any order, tombstones included —
// one BulkLoad stores what Put per entry plus Flush stored (putDigests).
func TestBulkLoadMatchesPuts(t *testing.T) {
	for _, name := range []string{"large-values-64k", "prefix-ties-short-keys", "segment-ends-on-last-entry",
		"shuffled-rotations-compactions", "sorted-single-sst", "tombstones-shuffled"} {
		t.Run(name, func(t *testing.T) {
			ops, mem := readSeed(t, name)
			tr := NewTree(testFlash(), bulkConfig(int64(2+int(mem)%63)<<10))
			load(t, tr, bulkEntries(ops))
			checkPutDigest(t, name, tr)
		})
	}
}

// TestBulkLoadRefuses covers the input BulkLoad turns away — a key repeated
// within one segment — and the loads it takes: the empty one, and a key
// repeated across segments, each storing what Put+Flush stored. A refusal
// writes nothing, even when the offending key sits in a later segment.
func TestBulkLoadRefuses(t *testing.T) {
	seg := func(n int, suffix string) []Entry { // n entries of 128 bytes by the ByteSize rule
		out := make([]Entry, n)
		for i := range out {
			out[i] = Entry{Key: []byte(string(key(i)) + suffix), Value: make([]byte, 69-len(suffix))}
		}
		return out
	}
	for _, c := range []struct {
		name    string
		entries []Entry
		err     string // "" for success
	}{
		{name: "duplicate-in-segment", entries: append(seg(3, ""), Entry{Key: key(1), Value: []byte("again")}), err: `"key00000001" repeats`},
		{name: "duplicate-in-later-segment", entries: append(seg(16, "a"), append(seg(5, "b"), Entry{Key: []byte("key00000002b")})...), err: `"key00000002b" repeats`},
		{name: "duplicate-sorted", entries: []Entry{{Key: key(1)}, {Key: key(1)}}, err: `"key00000001" repeats`},
		{name: "empty", entries: nil},
		{name: "repeat-across-segments", entries: append(seg(16, ""), seg(4, "")...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTree(testFlash(), bulkConfig(2<<10))
			err := tr.BulkLoad(c.entries)
			if c.err == "" {
				if err != nil {
					t.Fatal(err)
				}
				checkPutDigest(t, c.name, tr)
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
// entries of 128 bytes by the ByteSize rule into 2 KiB segments close a
// segment every 16 entries, so 40 entries make SSTs of 16, 16 and 8, newest
// first in C1.
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
	for _, s := range tr.l1 {
		counts = append(counts, entryCount(t, s))
	}
	if !slices.Equal(counts, []int{8, 16, 16}) {
		t.Fatalf("C1 SST sizes %v, want [8 16 16]", counts)
	}
}

// comparisonCut is the reference for cutSegments: the same ByteSize cuts, each
// segment's entry indices in key order by slices.SortFunc over bytes.Compare,
// and the same refusal — the first repeat met while a segment still arrives in
// order, else the first repeat of the segment in key order.
func comparisonCut(entries []Entry, segBytes int64) (segs [][2]int, order [][]int, err error) {
	for lo := 0; lo < len(entries); {
		hi, size, sorted := lo, int64(0), true
		for hi < len(entries) && size < segBytes {
			e := entries[hi]
			if sorted && hi > lo {
				switch c := bytes.Compare(entries[hi-1].Key, e.Key); {
				case c == 0:
					return nil, nil, duplicateKey(e.Key)
				case c > 0:
					sorted = false
				}
			}
			vlen := len(e.Value)
			if e.Tombstone {
				vlen = 0
			}
			size += int64(len(e.Key)+vlen) + 48
			hi++
		}
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		slices.SortFunc(idx, func(a, b int) int { return bytes.Compare(entries[a].Key, entries[b].Key) })
		for j := 1; j < len(idx); j++ {
			if k := entries[idx[j]].Key; bytes.Equal(k, entries[idx[j-1]].Key) {
				return nil, nil, duplicateKey(k)
			}
		}
		segs, order = append(segs, [2]int{lo, hi}), append(order, idx)
		lo = hi
	}
	return segs, order, nil
}

// TestCutSegmentsMatchesComparisonSort runs the radix path against
// comparisonCut: the same cuts, every segment in the same key order, and the
// same error for a repeated key. The inputs are the shapes the radix sort
// treats differently — random keys (every prefix byte varies), JOB index keys
// [1][value][pk] in PK order and reversed (constant flag, high value and PK
// sign bytes are skipped; runs of equal prefixes already ascend, or descend),
// keys whose whole prefix word is one constant (no pass at all, one run),
// keys shorter than 8 bytes ("a" ties "a\x00" on the zero-padded word) and
// key%08d keys, which tie on their prefix word in runs of a thousand — each
// whole, cut into several segments, and with a key repeated.
func TestCutSegmentsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	indexKey := func(v, pk int) []byte {
		k := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(k[1:], uint32(v)^0x80000000)
		binary.BigEndian.PutUint32(k[5:], uint32(pk)^0x80000000)
		return k
	}
	shapes := []struct {
		name string
		keys func(n int) [][]byte
	}{
		{"random", func(n int) [][]byte {
			out := make([][]byte, n)
			for i := range out {
				out[i] = make([]byte, 1+rng.Intn(16))
				rng.Read(out[i])
			}
			return out
		}},
		{"index-pk-order", func(n int) [][]byte {
			out := make([][]byte, n)
			for pk := range out {
				out[pk] = indexKey(rng.Intn(40)-20, pk+1)
			}
			return out
		}},
		{"index-reversed", func(n int) [][]byte {
			out := make([][]byte, n)
			for pk := range out {
				out[n-1-pk] = indexKey(rng.Intn(300), pk+1)
			}
			return out
		}},
		{"constant-prefix", func(n int) [][]byte {
			out := make([][]byte, n)
			for i, j := range rng.Perm(n) {
				out[i] = fmt.Appendf([]byte("prefix8!"), "%d", j)
			}
			return out
		}},
		{"short-keys", func(n int) [][]byte {
			out := make([][]byte, n)
			for i := range out {
				out[i] = bytes.Repeat([]byte{"a\x00b"[rng.Intn(3)]}, rng.Intn(9))
				out[i] = append(out[i], byte(i), byte(i>>8))
			}
			for i := range out { // "a" against "a\x00" and friends
				if rng.Intn(4) == 0 {
					out[i] = out[i][:rng.Intn(len(out[i])+1)]
				}
			}
			return out
		}},
		{"key%08d", func(n int) [][]byte {
			out := make([][]byte, n)
			for i, j := range rng.Perm(n) {
				out[i] = key(j)
			}
			return out
		}},
	}
	refused := 0
	for _, shape := range shapes {
		for _, n := range []int{2, 3000} {
			keys := shape.keys(n)
			for _, segBytes := range []int64{1 << 30, 16 << 10} {
				for _, repeat := range []bool{false, true} {
					entries := make([]Entry, len(keys))
					for i, k := range keys {
						entries[i] = Entry{Key: k}
					}
					if repeat {
						entries[rng.Intn(n)].Key = keys[rng.Intn(n)]
					}
					what := fmt.Sprintf("%s, %d keys, %d-byte segments, repeat %v", shape.name, n, segBytes, repeat)
					if checkCut(t, what, entries, segBytes) {
						refused++
					}
				}
			}
		}
	}
	if refused < len(shapes) {
		t.Fatalf("only %d inputs were refused: the repeated-key cases went untested", refused)
	}
}

// checkCut compares cutSegments on entries with comparisonCut and reports
// whether both refused the input.
func checkCut(t *testing.T, what string, entries []Entry, segBytes int64) bool {
	t.Helper()
	wantSegs, wantOrder, wantErr := comparisonCut(entries, segBytes)
	segs, order, err := cutSegments(entries, segBytes)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
	if err != nil {
		return true
	}
	if len(segs) != len(wantSegs) {
		t.Fatalf("%s: %d segments, want %d", what, len(segs), len(wantSegs))
	}
	for si, s := range segs {
		if [2]int{s.lo, s.hi} != wantSegs[si] {
			t.Fatalf("%s: segment %d is [%d, %d), want %v", what, si, s.lo, s.hi, wantSegs[si])
		}
		for j, want := range wantOrder[si] {
			got := s.lo + j
			if !s.sorted {
				got = int(order[s.lo+j].i)
			}
			if got != want {
				t.Fatalf("%s: segment %d position %d holds entry %d (%q), want %d (%q)",
					what, si, j, got, entries[got].Key, want, entries[want].Key)
			}
		}
	}
	return false
}
