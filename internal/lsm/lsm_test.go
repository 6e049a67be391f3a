package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

func testFlash() *flash.Flash { return flash.New(hw.Cosmos(), 0) }

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

// entriesOf returns key(i)→value for each i in order; value nil means val(i).
func entriesOf(keys []int, value []byte) []Entry {
	out := make([]Entry, len(keys))
	for j, i := range keys {
		v := value
		if v == nil {
			v = val(i)
		}
		out[j] = Entry{Key: key(i), Value: v}
	}
	return out
}

// span returns lo, lo+step, … below hi.
func span(lo, hi, step int) []int {
	var out []int
	for i := lo; i < hi; i += step {
		out = append(out, i)
	}
	return out
}

// load bulk-loads entries into tr, failing the test on error.
func load(tb testing.TB, tr *Tree, entries []Entry) {
	tb.Helper()
	if err := tr.BulkLoad(entries); err != nil {
		tb.Fatal(err)
	}
}

// pending is a bulk load being assembled from single-key operations: the last
// operation per key wins, and a delete becomes a tombstone.
type pending map[string]Entry

func (p pending) put(k, v []byte) { p[string(k)] = Entry{Key: k, Value: v} }
func (p pending) del(k []byte)    { p[string(k)] = Entry{Key: k, Tombstone: true} }

// load bulk-loads the pending entries in key order and empties p.
func (p pending) load(tb testing.TB, tr *Tree) {
	tb.Helper()
	entries := make([]Entry, 0, len(p))
	for _, e := range p {
		entries = append(entries, e)
	}
	slices.SortFunc(entries, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
	load(tb, tr, entries)
	clear(p)
}

func TestSSTRoundTrip(t *testing.T) {
	fl := testFlash()
	var entries []Entry
	for i := 0; i < 5000; i++ {
		entries = append(entries, Entry{Key: key(i), Value: val(i)})
	}
	s, err := BuildSST(fl, entries, Access{})
	if err != nil {
		t.Fatal(err)
	}
	if n := entryCount(t, s); n != 5000 {
		t.Fatalf("count = %d", n)
	}
	if !bytes.Equal(s.MinKey(), key(0)) || !bytes.Equal(s.MaxKey(), key(4999)) {
		t.Fatalf("fence pointers wrong: %q..%q", s.MinKey(), s.MaxKey())
	}
	for _, i := range []int{0, 1, 777, 2500, 4999} {
		e, ok, err := s.Get(key(i), Access{})
		if err != nil || !ok || !bytes.Equal(e.Value, val(i)) {
			t.Fatalf("Get(%d) = %q,%v,%v", i, e.Value, ok, err)
		}
	}
	if _, ok, _ := s.Get([]byte("zzz"), Access{}); ok {
		t.Fatal("Get out of range should miss")
	}
	// Full iteration.
	n := 0
	for it := s.Iter(nil, Access{}); it.Valid(); it.Next() {
		if !bytes.Equal(it.Entry().Key, key(n)) {
			t.Fatalf("iter position %d = %q", n, it.Entry().Key)
		}
		n++
	}
	if n != 5000 {
		t.Fatalf("iterated %d entries", n)
	}
	// Seek iteration.
	it := s.Iter(key(4321), Access{})
	if !it.Valid() || !bytes.Equal(it.Entry().Key, key(4321)) {
		t.Fatal("seek to 4321 failed")
	}
}

func TestSSTChargesFlashReads(t *testing.T) {
	fl := testFlash()
	var entries []Entry
	for i := 0; i < 2000; i++ {
		entries = append(entries, Entry{Key: key(i), Value: val(i)})
	}
	s, err := BuildSST(fl, entries, Access{})
	if err != nil {
		t.Fatal(err)
	}
	tl := vclock.NewTimeline("host")
	ac := Access{TL: tl, R: hw.HostRates(hw.Cosmos())}
	if _, ok, _ := s.Get(key(1000), ac); !ok {
		t.Fatal("lookup missed")
	}
	if tl.Account()[hw.CatFlashLoad] <= 0 {
		t.Fatal("charged lookup booked no flash time")
	}
	if tl.Account()[hw.CatSeekIndex] <= 0 {
		t.Fatal("charged lookup booked no index seek time")
	}
}

func TestSSTDeviceCheaperFlashThanHost(t *testing.T) {
	fl := testFlash()
	var entries []Entry
	for i := 0; i < 20000; i++ {
		entries = append(entries, Entry{Key: key(i), Value: val(i)})
	}
	s, err := BuildSST(fl, entries, Access{})
	if err != nil {
		t.Fatal(err)
	}
	m := hw.Cosmos()
	host := vclock.NewTimeline("host")
	dev := vclock.NewTimeline("device")
	for it := s.Iter(nil, Access{TL: host, R: hw.HostRates(m)}); it.Valid(); it.Next() {
	}
	for it := s.Iter(nil, Access{TL: dev, R: hw.DeviceRates(m)}); it.Valid(); it.Next() {
	}
	if dev.Account()[hw.CatFlashLoad] >= host.Account()[hw.CatFlashLoad] {
		t.Fatalf("device flash streaming (%v) should be cheaper than host (%v)",
			dev.Account()[hw.CatFlashLoad], host.Account()[hw.CatFlashLoad])
	}
}

func TestBuildSSTRejectsUnsorted(t *testing.T) {
	fl := testFlash()
	_, err := BuildSST(fl, []Entry{
		{Key: []byte("b"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
	}, Access{})
	if err == nil {
		t.Fatal("BuildSST should reject unsorted input")
	}
	if _, err := BuildSST(fl, nil, Access{}); err == nil {
		t.Fatal("BuildSST should reject empty input")
	}
}

func smallTree(fl *flash.Flash) *Tree {
	return NewTree(fl, Config{
		SegmentBytes:   8 << 10,
		MaxL1Files:     4,
		LevelRatio:     4,
		BaseLevelBytes: 64 << 10,
	})
}

func TestTreeGetAcrossLevels(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	const n = 5000
	load(t, tr, entriesOf(span(0, n, 1), nil))
	st := tr.Stats()
	if st.SSTs == 0 || st.Levels < 2 {
		t.Fatalf("expected multi-level tree, got %+v", st)
	}
	for _, i := range []int{0, 42, 999, 2500, n - 1} {
		v, ok, err := tr.Get(key(i), Access{})
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get([]byte("nope"), Access{}); ok {
		t.Fatal("missing key found")
	}
	if err := tr.SanityCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeUpdateShadowsOldVersions(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(span(0, 3000, 1), nil))
	// Update a subset; new versions land above the old ones.
	load(t, tr, entriesOf(span(0, 3000, 7), []byte("updated")))
	for i := 0; i < 3000; i++ {
		v, ok, err := tr.Get(key(i), Access{})
		if err != nil || !ok {
			t.Fatalf("Get(%d): %v %v", i, ok, err)
		}
		want := val(i)
		if i%7 == 0 {
			want = []byte("updated")
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = %q, want %q", i, v, want)
		}
	}
}

func TestTreeDeleteMasksLowerLevels(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(span(0, 2000, 1), nil))
	tombs := entriesOf(span(0, 2000, 3), nil)
	for i := range tombs {
		tombs[i].Tombstone = true
	}
	load(t, tr, tombs)
	for i := 0; i < 2000; i++ {
		_, ok, _ := tr.Get(key(i), Access{})
		if i%3 == 0 && ok {
			t.Fatalf("deleted key %d still visible", i)
		}
		if i%3 != 0 && !ok {
			t.Fatalf("live key %d missing", i)
		}
	}
	// Scans must hide tombstones too.
	n := 0
	for it := tr.Scan(nil, nil, Access{}); it.Valid(); it.Next() {
		if it.Entry().Tombstone {
			t.Fatal("scan surfaced a tombstone")
		}
		n++
	}
	want := 2000 - (2000+2)/3
	if n != want {
		t.Fatalf("scan found %d live keys, want %d", n, want)
	}
}

func TestTreeScanRangeAndOrder(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(rand.New(rand.NewSource(7)).Perm(4000), nil))
	lo, hi := key(1234), key(2345)
	var prev []byte
	n := 0
	for it := tr.Scan(lo, hi, Access{}); it.Valid(); it.Next() {
		k := it.Entry().Key
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Fatalf("key %q outside [%q,%q)", k, lo, hi)
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		n++
	}
	if n != 2345-1234 {
		t.Fatalf("scan found %d keys, want %d", n, 2345-1234)
	}
}

// TestScanDuringBulkLoadIsRaceFree drains full scans while another goroutine
// bulk-loads keys. A scan reads the tree's level lists only under its read
// lock; `go test -race` (make race) reports it if it does not. Every scan sees
// all keys of the first load, in order. C1 never overflows here, so no
// compaction retires an SST a scan is reading.
func TestScanDuringBulkLoadIsRaceFree(t *testing.T) {
	const first, loads = 1000, 50
	cfg := DefaultConfig()
	cfg.MaxL1Files = loads + 1
	tr := NewTree(testFlash(), cfg)
	load(t, tr, entriesOf(span(0, 2*first, 2), nil))
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < loads && err == nil; i++ {
			err = tr.BulkLoad(entriesOf(span(2*i+1, 2*first, 2*loads), []byte("later")))
		}
		done <- err
	}()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		var prev []byte
		even := 0
		it := tr.Scan(nil, nil, Access{})
		for ; it.Valid(); it.Next() {
			k := it.Entry().Key
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("scan out of order: %q then %q", prev, k)
			}
			prev = k
			if k[len(k)-1]%2 == 0 {
				even++
			}
		}
		if it.Err() != nil || even != first {
			t.Fatalf("scan saw %d of %d first-load keys (err %v)", even, first, it.Err())
		}
	}
}

func TestTreePlacement(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(span(0, 4000, 1), nil))
	levels := tr.View().Levels()
	if len(levels) < 2 {
		t.Fatalf("view has %d levels below C0", len(levels))
	}
	total := 0
	for _, lvl := range levels {
		for _, s := range lvl {
			n := entryCount(t, s)
			if n <= 0 || s.DataBytes() <= 0 || fl.Size(s.File()) <= 0 {
				t.Fatalf("SST %d with empty stats: %d entries, %d bytes", s.File(), n, s.DataBytes())
			}
			total += n
		}
	}
	if total < 4000 { // duplicates across levels may exceed, never undershoot
		t.Fatalf("levels account for %d entries, want ≥ 4000", total)
	}
}

func TestBloomProperties(t *testing.T) {
	// No false negatives, bounded false positives.
	f := func(keys [][]byte) bool {
		if len(keys) == 0 {
			return true
		}
		b := NewBloom(len(keys))
		for _, k := range keys {
			b.Add(k)
		}
		for _, k := range keys {
			if !b.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	b := NewBloom(10000)
	for i := 0; i < 10000; i++ {
		b.Add(key(i))
	}
	fp := 0
	for i := 10000; i < 20000; i++ {
		if b.MayContain(key(i)) {
			fp++
		}
	}
	if fp > 500 { // 5% — generous bound for a 10-bit/key filter
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
	rt := UnmarshalBloom(b.appendTo(nil))
	for i := 0; i < 10000; i += 97 {
		if !rt.MayContain(key(i)) {
			t.Fatal("marshalled filter lost a key")
		}
	}
}

func TestTreePropertyRandomOps(t *testing.T) {
	// Model-based test: tree behaves like a map under random put/delete,
	// bulk-loaded in batches of random size.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fl := testFlash()
		tr := smallTree(fl)
		model := map[string]string{}
		batch := pending{}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("k%04d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				batch.del([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", op)
				batch.put([]byte(k), []byte(v))
				model[k] = v
			}
			if rng.Intn(100) == 0 {
				batch.load(t, tr)
			}
		}
		batch.load(t, tr)
		for k, v := range model {
			got, ok, err := tr.Get([]byte(k), Access{})
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		n := 0
		for it := tr.Scan(nil, nil, Access{}); it.Valid(); it.Next() {
			if _, ok := model[string(it.Entry().Key)]; !ok {
				return false
			}
			n++
		}
		return n == len(model) && tr.SanityCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIterChargesComparisons(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(span(0, 3000, 1), nil))
	tl := vclock.NewTimeline("host")
	ac := Access{TL: tl, R: hw.HostRates(hw.Cosmos())}
	for it := tr.Scan(nil, nil, ac); it.Valid(); it.Next() {
	}
	if tl.Account()[hw.CatCompareKeys] <= 0 {
		t.Fatal("merged scan booked no internal-key comparison time")
	}
}

// entryCount counts s's entries by iterating it.
func entryCount(t testing.TB, s *SST) int {
	t.Helper()
	n := 0
	it := s.Iter(nil, Access{})
	for ; it.Valid(); it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return n
}
