package lsm

import (
	"bytes"
	"fmt"
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
		checkEntries(t, fmt.Sprintf("%s limit %d: entries", what, limit), byEntry, wantHere)
		checkEntries(t, fmt.Sprintf("%s limit %d: runs", what, limit), byRun, wantHere)
		checkSameTime(t, fmt.Sprintf("%s limit %d: entries vs runs", what, limit), tlE, tlR)
	}
}

// checkRestartMatchesFresh asserts, for one scan: it, restarted in place by
// scanInto from wherever the previous scan left it, delivers want and books
// bit-identical virtual time to a new iterator — in full and when the consumer
// stops after any k entries, consuming entry by entry and by runs. Each limit
// restarts it from the last one's abandoned position.
func checkRestartMatchesFresh(t *testing.T, what string, it *TreeIter, scanInto func(*TreeIter, Access), cached bool, want []Entry) {
	t.Helper()
	fresh := func(ac Access) *TreeIter {
		n := &TreeIter{}
		scanInto(n, ac)
		return n
	}
	reused := func(ac Access) *TreeIter {
		scanInto(it, ac)
		return it
	}
	for limit := -1; limit <= len(want)+1; limit++ {
		wantHere := want
		if limit >= 0 && limit < len(want) {
			wantHere = want[:limit]
		}
		for _, runs := range []bool{false, true} {
			got, tlR, errR := scanOnce(reused, cached, limit, runs)
			ref, tlF, errF := scanOnce(fresh, cached, limit, runs)
			if errR != nil || errF != nil {
				t.Fatalf("%s limit %d runs %v: scan errors %v / %v", what, limit, runs, errR, errF)
			}
			checkEntries(t, fmt.Sprintf("%s limit %d runs %v: restarted", what, limit, runs), got, wantHere)
			checkEntries(t, fmt.Sprintf("%s limit %d runs %v: new", what, limit, runs), ref, wantHere)
			checkSameTime(t, fmt.Sprintf("%s limit %d runs %v: restarted vs new", what, limit, runs), tlR, tlF)
		}
	}
}

// checkEntries asserts that got holds exactly the live entries of want.
func checkEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s delivered %d entries, model has %d", what, len(got), len(want))
	}
	for i, e := range got {
		if e.Tombstone || !bytes.Equal(e.Key, want[i].Key) || !bytes.Equal(e.Value, want[i].Value) {
			t.Fatalf("%s entry %d = %q→%q (tombstone %v), model %q→%q",
				what, i, e.Key, e.Value, e.Tombstone, want[i].Key, want[i].Value)
		}
	}
}

// checkSameTime asserts that two timelines stand at the same instant with the
// same per-category account.
func checkSameTime(t *testing.T, what string, a, b *vclock.Timeline) {
	t.Helper()
	if a.Now() != b.Now() || !reflect.DeepEqual(a.Account(), b.Account()) {
		t.Fatalf("%s: virtual time differs: %v %v vs %v %v",
			what, float64(a.Now()), a.Account(), float64(b.Now()), b.Account())
	}
}

// modelRange returns the model's entries in [lo, hi) in key order.
func modelRange(model map[string][]byte, lo, hi []byte) []Entry {
	var out []Entry
	for k, v := range model {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			out = append(out, Entry{Key: []byte(k), Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

// FuzzTreeIterRuns drives a tree with a fuzzed operation stream and checks
// every scan through checkRunsMatchEntries against a sorted-map model, over
// the live tree and over a frozen view. Then one iterator is restarted in
// place (checkRestartMatchesFresh) across scans of the tree and of the view:
// all keys, then [lo, hi), then the one key lo — many live SSTs, then fewer.
//
// ops is read three bytes at a time — kind, key, size: kind%8 < 5 puts key
// (0–255) with a value of 40+size%160 bytes into the pending batch, 5–6
// deletes it there, 7 bulk-loads the batch (the last op per key wins; a delete
// becomes a tombstone). The stream ends with one final load. shape picks the
// segment size (2 KiB × (1+shape&31): small ones leave overlapping C1 files
// and compacted lower levels, large ones one SST per load) and, with bit 7, a
// block cache; bit 6 is unused. [lo, hi) are key numbers; bounds bits 0/1 drop
// them. The seed corpus under testdata/fuzz/FuzzTreeIterRuns is named after
// the tree shape each entry builds (its memtable names predate the bulk-only
// write path: those streams now end in one final load).
func FuzzTreeIterRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, shape, lo, hi, bounds uint8) {
		if len(ops) > 3*1024 {
			t.Skip("operation stream longer than any seed needs")
		}
		tr := NewTree(testFlash(), Config{
			SegmentBytes:   int64(1+shape&31) << 11,
			MaxL1Files:     2,
			LevelRatio:     3,
			BaseLevelBytes: 8 << 10,
		})
		cached := shape&128 != 0
		model := map[string][]byte{}
		batch := pending{}
		for ; len(ops) >= 3; ops = ops[3:] {
			k := key(int(ops[1]))
			switch kind := ops[0] % 8; {
			case kind < 5:
				v := bytes.Repeat(ops[2:3], 40+int(ops[2])%160)
				model[string(k)] = v
				batch.put(k, v)
			case kind < 7:
				delete(model, string(k))
				batch.del(k)
			default:
				batch.load(t, tr)
			}
		}
		batch.load(t, tr)
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
		want := modelRange(model, loKey, hiKey)

		checkRunsMatchEntries(t, "tree", func(ac Access) *TreeIter { return tr.Scan(loKey, hiKey, ac) }, cached, want)
		v := tr.View()
		checkRunsMatchEntries(t, "view", func(ac Access) *TreeIter { return viewScan(v, loKey, hiKey, ac) }, cached, want)

		it := &TreeIter{}
		oneLo, oneHi := key(int(lo)), key(int(lo)+1)
		for _, sc := range []struct {
			what   string
			into   func(*TreeIter, []byte, []byte, Access)
			lo, hi []byte
		}{
			{"restarted tree, all keys", tr.ScanInto, nil, nil},
			{"restarted tree", tr.ScanInto, loKey, hiKey},
			{"restarted tree, one key", tr.ScanInto, oneLo, oneHi},
			{"restarted view, all keys", v.ScanInto, nil, nil},
			{"restarted view", v.ScanInto, loKey, hiKey},
			{"restarted view, one key", v.ScanInto, oneLo, oneHi},
		} {
			into := func(it *TreeIter, ac Access) { sc.into(it, sc.lo, sc.hi, ac) }
			checkRestartMatchesFresh(t, sc.what, it, into, cached, modelRange(model, sc.lo, sc.hi))
		}
	})
}

// singleSSTTree loads n entries into one SST, so every scan of it has exactly
// one live merge source — the shape of a JOB column family.
func singleSSTTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.SegmentBytes = 64 << 20
	tr := NewTree(testFlash(), cfg)
	load(tb, tr, entriesOf(span(0, n, 1), nil))
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
	load(t, tr, []Entry{{Key: key(700), Tombstone: true}}) // a second SST holding only the tombstone
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

// TestWarmScanIntoAllocatesNothing is the allocation guard of restarting: a
// warm iterator rescanning a range of a single-SST tree, live or through a
// view, allocates nothing.
func TestWarmScanIntoAllocatesNothing(t *testing.T) {
	tr := singleSSTTree(t, 2000)
	v := tr.View()
	ac := Access{TL: vclock.NewTimeline("host"), R: hw.HostRates(hw.Cosmos())}
	it := &TreeIter{}
	lo, hi := key(500), key(1500)
	for name, into := range map[string]func(*TreeIter, []byte, []byte, Access){"tree": tr.ScanInto, "view": v.ScanInto} {
		scan := func() {
			into(it, lo, hi, ac)
			rows := 0
			for ; it.Valid(); it.Next() {
				run := it.Run()
				rows += 1 + len(run)
				it.Consume(len(run))
			}
			if rows != 1000 || it.Err() != nil {
				t.Fatalf("%s: scan found %d of 1000 rows (err %v)", name, rows, it.Err())
			}
		}
		scan()
		if n := testing.AllocsPerRun(10, scan); n != 0 {
			t.Errorf("%s: a warm ScanInto made %v allocations, want 0", name, n)
		}
	}
}

// TestClearDropsEveryReference pins what a recycled iterator may keep: after
// Clear, none of its fields and no slot of its slabs — up to capacity, the
// ones a shorter scan left unused included — refers to an SST, a decoded
// block, an entry's bytes or the access of the scan it served.
func TestClearDropsEveryReference(t *testing.T) {
	tr := NewTree(testFlash(), Config{SegmentBytes: 2 << 10, MaxL1Files: 2, LevelRatio: 3, BaseLevelBytes: 8 << 10})
	entries := make([]Entry, 300)
	for i := range entries {
		entries[i] = Entry{Key: key(i * 7 % 300), Value: val(i)}
	}
	load(t, tr, entries)
	v := tr.View()
	ac := Access{TL: vclock.NewTimeline("host"), R: hw.HostRates(hw.Cosmos()), Cache: NewBlockCache(1 << 20)}
	it := &TreeIter{}
	for name, into := range map[string]func(*TreeIter, []byte, []byte, Access){"tree": tr.ScanInto, "view": v.ScanInto} {
		into(it, nil, nil, ac)
		into(it, key(100), key(101), ac) // fewer sources: the first scan's stay behind len
		for i := 0; i < 3 && it.Valid(); i++ {
			it.Next()
		}
		if len(it.ssts) == 0 {
			t.Fatalf("%s: the scan opened no SST", name)
		}
		it.Clear()
		if path, ok := holdsNothing(reflect.ValueOf(it).Elem(), "it"); !ok {
			t.Errorf("%s: after Clear, %s still holds a reference", name, path)
		}
	}
}

// iterStorage names the slices a cleared iterator keeps: its own slabs,
// whose every slot up to capacity must hold nothing in turn.
var iterStorage = map[string]bool{
	"it.inner.srcs": true, "it.inner.ages": true, "it.srcs": true, "it.ssts": true,
}

// holdsNothing reports whether v holds no reference, naming the first place
// that does: no pointer, interface, map or slice is non-nil, save the
// iterStorage slabs, which are walked slot by slot up to capacity.
func holdsNothing(v reflect.Value, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := holdsNothing(v.Field(i), path+"."+v.Type().Field(i).Name); !ok {
				return p, false
			}
		}
	case reflect.Slice:
		if !iterStorage[path] {
			return path, v.IsNil()
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			if p, ok := holdsNothing(all.Index(i), fmt.Sprintf("%s[%d]", path, i)); !ok {
				return p, false
			}
		}
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Func, reflect.Chan:
		return path, v.IsNil()
	}
	return "", true
}
