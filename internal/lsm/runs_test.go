package lsm

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

// drain takes up to limit live entries (limit < 0: all of them) from it and
// abandons the iterator on the last one taken, without stepping past it. With
// runs it fills from Run/Consume as exec.scan and table.IndexSeek do; without,
// it is the plain Valid/Entry/Next loop.
func drain(it *TreeIter, limit int, runs bool) []Entry {
	var out []Entry
	for (limit < 0 || len(out) < limit) && it.Valid() {
		out = append(out, it.Entry())
		if runs {
			run := it.Run()
			if limit >= 0 && len(run) > limit-len(out) {
				run = run[:limit-len(out)]
			}
			out = append(out, run...)
			it.Consume(len(run))
		}
		if limit < 0 || len(out) < limit {
			it.Next()
		}
	}
	return out
}

// scanOnce runs one charged scan on a fresh host timeline (and a fresh block
// cache, when asked for one) and returns what it delivered and booked.
func scanOnce(scan func(Access) *TreeIter, cached bool, limit int, runs bool) ([]Entry, *vclock.Timeline, error) {
	tl := vclock.NewTimeline("host")
	ac := Access{TL: tl, R: hw.HostRates(hw.Cosmos())}
	if cached {
		ac.Cache = NewBlockCache(1 << 20)
	}
	it := scan(ac)
	out := drain(it, limit, runs)
	return out, tl, it.Err()
}

// checkRunsMatchEntries asserts, for one scan: run consumption and entry
// consumption deliver want, in order, and leave bit-identical timelines — in
// full and when the consumer stops after any k entries, which is where the
// merge iterator's one-entry look-ahead decides whether the next block has
// been read yet.
func checkRunsMatchEntries(t *testing.T, what string, scan func(Access) *TreeIter, cached bool, want []Entry) {
	t.Helper()
	for limit := -1; limit <= len(want)+1; limit++ {
		byEntry, tlE, errE := scanOnce(scan, cached, limit, false)
		byRun, tlR, errR := scanOnce(scan, cached, limit, true)
		if errE != nil || errR != nil {
			t.Fatalf("%s limit %d: scan errors %v / %v", what, limit, errE, errR)
		}
		wantHere := want
		if limit >= 0 && limit < len(want) {
			wantHere = want[:limit]
		}
		for name, got := range map[string][]Entry{"entries": byEntry, "runs": byRun} {
			if len(got) != len(wantHere) {
				t.Fatalf("%s limit %d: %s delivered %d entries, model has %d", what, limit, name, len(got), len(wantHere))
			}
			for i, e := range got {
				if e.Tombstone || !bytes.Equal(e.Key, wantHere[i].Key) || !bytes.Equal(e.Value, wantHere[i].Value) {
					t.Fatalf("%s limit %d: %s entry %d = %q→%q (tombstone %v), model %q→%q",
						what, limit, name, i, e.Key, e.Value, e.Tombstone, wantHere[i].Key, wantHere[i].Value)
				}
			}
		}
		if tlE.Now() != tlR.Now() || !reflect.DeepEqual(tlE.Account(), tlR.Account()) {
			t.Fatalf("%s limit %d: virtual time differs: entries %v %v, runs %v %v",
				what, limit, float64(tlE.Now()), tlE.Account(), float64(tlR.Now()), tlR.Account())
		}
	}
}

// FuzzTreeIterRuns drives a tree with a fuzzed operation stream and checks
// every scan through checkRunsMatchEntries against a sorted-map model, over
// the live tree and over a frozen view.
//
// ops is read three bytes at a time — kind, key, size: kind%8 < 5 puts key
// (0–255) with a value of 40+size%160 bytes, 5–6 deletes it, 7 flushes. shape
// picks the memtable budget (2 KiB × (1+shape&31): small ones leave
// overlapping C1 files and compacted lower levels, large ones one SST per
// flush or nothing but the memtable) and, with bit 7, a block cache; bit 6 is
// unused. [lo, hi) are key numbers; bounds bits 0/1 drop them.
// The seed corpus under testdata/fuzz/FuzzTreeIterRuns is named after the
// tree shape each entry builds.
func FuzzTreeIterRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, shape, lo, hi, bounds uint8) {
		if len(ops) > 3*1024 {
			t.Skip("operation stream longer than any seed needs")
		}
		tr := NewTree(testFlash(), Config{
			MemTableBytes:  int64(1+shape&31) << 11,
			MaxL1Files:     2,
			LevelRatio:     3,
			BaseLevelBytes: 8 << 10,
		})
		cached := shape&128 != 0
		model := map[string][]byte{}
		for ; len(ops) >= 3; ops = ops[3:] {
			k := key(int(ops[1]))
			var err error
			switch kind := ops[0] % 8; {
			case kind < 5:
				v := bytes.Repeat(ops[2:3], 40+int(ops[2])%160)
				model[string(k)] = v
				err = tr.Put(k, v)
			case kind < 7:
				delete(model, string(k))
				err = tr.Delete(k)
			default:
				err = tr.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		loKey, hiKey := key(int(lo)), key(int(hi))
		if bounds&1 != 0 {
			loKey = nil
		}
		if bounds&2 != 0 {
			hiKey = nil
		}
		var want []Entry
		for k, v := range model {
			if (loKey == nil || k >= string(loKey)) && (hiKey == nil || k < string(hiKey)) {
				want = append(want, Entry{Key: []byte(k), Value: v})
			}
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })

		checkRunsMatchEntries(t, "tree", func(ac Access) *TreeIter { return tr.Scan(loKey, hiKey, ac) }, cached, want)
		v := tr.View()
		checkRunsMatchEntries(t, "view", func(ac Access) *TreeIter { return v.Scan(loKey, hiKey, ac) }, cached, want)
	})
}

// singleSSTTree loads n entries in one flush, so every scan of it has exactly
// one live merge source — the shape of a bulk-loaded column family.
func singleSSTTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.MemTableBytes = 64 << 20
	tr := NewTree(testFlash(), cfg)
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		tb.Fatal(err)
	}
	if st := tr.Stats(); st.SSTs != 1 {
		tb.Fatalf("tree has %d SSTs, want 1", st.SSTs)
	}
	return tr
}

// TestSingleSourceScanServesRuns pins when runs are handed out: a single-SST
// scan delivers all but one entry per data block through Run, never a
// tombstone and never a key at or past the bound; while a second SST still has
// an entry ahead the merge has two live sources and Run is empty.
func TestSingleSourceScanServesRuns(t *testing.T) {
	const n = 2000
	tr := singleSSTTree(t, n)
	if err := tr.Delete(key(700)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil { // a second SST holding only the tombstone
		t.Fatal(err)
	}
	it := tr.Scan(nil, key(1500), Access{})
	if run := it.Run(); len(run) != 0 {
		t.Fatalf("two live sources, yet Run handed out %d entries", len(run))
	}
	total, fromRuns := 0, 0
	for ; it.Valid(); it.Next() {
		total++
		run := it.Run()
		for _, e := range run {
			if e.Tombstone || bytes.Compare(e.Key, key(1500)) >= 0 || bytes.Equal(e.Key, key(700)) {
				t.Fatalf("run holds %q (tombstone %v)", e.Key, e.Tombstone)
			}
		}
		total += len(run)
		if bytes.Compare(it.Entry().Key, key(700)) > 0 {
			fromRuns += len(run)
		} else if len(run) != 0 {
			t.Fatalf("run of %d before the second source ran dry", len(run))
		}
		it.Consume(len(run))
	}
	if it.Err() != nil || total != 1499 {
		t.Fatalf("scan delivered %d entries (err %v), want 1499", total, it.Err())
	}
	if fromRuns < 700 {
		t.Fatalf("only %d of the 799 entries behind the tombstone came from runs", fromRuns)
	}
}

// TestRunScanAllocationsIndependentOfRows is the allocation guard of the run
// path: a full scan allocates its iterators and nothing per row or per block
// (no block cache here, whose Put allocates an LRU node per block).
func TestRunScanAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		tr := singleSSTTree(t, n)
		tl := vclock.NewTimeline("host")
		ac := Access{TL: tl, R: hw.HostRates(hw.Cosmos())}
		scan := func() {
			rows := 0
			it := tr.Scan(nil, nil, ac)
			for ; it.Valid(); it.Next() {
				run := it.Run()
				rows += 1 + len(run)
				it.Consume(len(run))
			}
			if rows != n || it.Err() != nil {
				t.Fatalf("scan found %d of %d rows (err %v)", rows, n, it.Err())
			}
		}
		scan() // decode every block once: the memo is filled on first read
		return testing.AllocsPerRun(10, scan)
	}
	small, large := allocs(500), allocs(20_000)
	if small != large {
		t.Fatalf("allocations per scan grow with the row count: %v at 500 rows, %v at 20000", small, large)
	}
}
