package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

func testFlash() *flash.Flash { return flash.New(hw.Cosmos(), 0) }

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestMemTableBasic(t *testing.T) {
	m := NewMemTable()
	for i := 0; i < 1000; i++ {
		m.Put(key(i), val(i))
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", m.Len())
	}
	for i := 0; i < 1000; i++ {
		e, ok := m.Get(key(i))
		if !ok || !bytes.Equal(e.Value, val(i)) {
			t.Fatalf("Get(%d) = %q,%v", i, e.Value, ok)
		}
	}
	if _, ok := m.Get([]byte("missing")); ok {
		t.Fatal("Get(missing) should not find an entry")
	}
}

func TestMemTableOverwriteAndDelete(t *testing.T) {
	m := NewMemTable()
	m.Put([]byte("a"), []byte("1"))
	m.Put([]byte("a"), []byte("2"))
	if m.Len() != 1 {
		t.Fatalf("overwrite should not grow table: Len = %d", m.Len())
	}
	e, ok := m.Get([]byte("a"))
	if !ok || string(e.Value) != "2" {
		t.Fatalf("Get(a) = %q,%v, want 2,true", e.Value, ok)
	}
	m.Delete([]byte("a"))
	e, ok = m.Get([]byte("a"))
	if !ok || !e.Tombstone {
		t.Fatalf("delete should leave a tombstone, got %+v %v", e, ok)
	}
}

func TestMemTableIterOrder(t *testing.T) {
	m := NewMemTable()
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, i := range perm {
		m.Put(key(i), val(i))
	}
	i := 0
	for it := m.Iter(nil); it.Valid(); it.Next() {
		if !bytes.Equal(it.Entry().Key, key(i)) {
			t.Fatalf("iter position %d = %q, want %q", i, it.Entry().Key, key(i))
		}
		i++
	}
	if i != 500 {
		t.Fatalf("iterated %d entries, want 500", i)
	}
	// Start mid-range.
	it := m.Iter(key(250))
	if !it.Valid() || !bytes.Equal(it.Entry().Key, key(250)) {
		t.Fatalf("Iter(key250) starts at %q", it.Entry().Key)
	}
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
	if s.Count() != 5000 {
		t.Fatalf("Count = %d", s.Count())
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
	if tl.Booked(hw.CatFlashLoad) <= 0 {
		t.Fatal("charged lookup booked no flash time")
	}
	if tl.Booked(hw.CatSeekIndex) <= 0 {
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
	if dev.Booked(hw.CatFlashLoad) >= host.Booked(hw.CatFlashLoad) {
		t.Fatalf("device flash streaming (%v) should be cheaper than host (%v)",
			dev.Booked(hw.CatFlashLoad), host.Booked(hw.CatFlashLoad))
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
		MemTableBytes:  8 << 10,
		MaxL1Files:     4,
		LevelRatio:     4,
		BaseLevelBytes: 64 << 10,
	})
}

func TestTreeGetAcrossLevels(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
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
	for i := 0; i < 3000; i++ {
		tr.Put(key(i), val(i))
	}
	tr.Flush()
	// Update a subset; new versions land above the old ones.
	for i := 0; i < 3000; i += 7 {
		tr.Put(key(i), []byte("updated"))
	}
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
	for i := 0; i < 2000; i++ {
		tr.Put(key(i), val(i))
	}
	tr.Flush()
	for i := 0; i < 2000; i += 3 {
		tr.Delete(key(i))
	}
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
	perm := rand.New(rand.NewSource(7)).Perm(4000)
	for _, i := range perm {
		tr.Put(key(i), val(i))
	}
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

func TestTreeScanSeesMemtableOverSST(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	for i := 0; i < 100; i++ {
		tr.Put(key(i), val(i))
	}
	tr.Flush()
	tr.Put(key(50), []byte("fresh")) // stays in C0
	found := false
	for it := tr.Scan(key(50), key(51), Access{}); it.Valid(); it.Next() {
		found = true
		if string(it.Entry().Value) != "fresh" {
			t.Fatalf("scan returned stale value %q", it.Entry().Value)
		}
	}
	if !found {
		t.Fatal("scan missed key 50")
	}
}

// TestScanDuringPutIsRaceFree drains full scans while another goroutine puts
// keys into the mutable memtable. A scan must not walk that memtable after it
// released the tree's read lock; `go test -race` (make race) reports it if it
// does. Every scan sees all flushed keys, in order.
func TestScanDuringPutIsRaceFree(t *testing.T) {
	const flushed = 1000
	tr := NewTree(testFlash(), DefaultConfig())
	for i := 0; i < flushed; i++ {
		if err := tr.Put(key(2*i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 20*flushed && err == nil; i++ {
			err = tr.Put(key(2*(i%flushed)+1), val(i)) // stays in C0: far below the flush threshold
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
		if it.Err() != nil || even != flushed {
			t.Fatalf("scan saw %d of %d flushed keys (err %v)", even, flushed, it.Err())
		}
	}
}

func TestTreePlacement(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	for i := 0; i < 4000; i++ {
		tr.Put(key(i), val(i))
	}
	pl := tr.Placement()
	if len(pl) < 2 {
		t.Fatalf("placement has %d levels", len(pl))
	}
	if pl[0].Level != 0 {
		t.Fatal("placement must start at C0")
	}
	total := pl[0].MemEntries
	for _, li := range pl[1:] {
		for _, s := range li.SSTs {
			if s.Count <= 0 || s.DataBytes <= 0 {
				t.Fatalf("placement SST with empty stats: %+v", s)
			}
			total += s.Count
		}
	}
	if total < 4000 { // duplicates across levels may exceed, never undershoot
		t.Fatalf("placement accounts for %d entries, want ≥ 4000", total)
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
	// Model-based test: tree behaves like a map under random put/delete.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fl := testFlash()
		tr := smallTree(fl)
		model := map[string]string{}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("k%04d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				tr.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", op)
				tr.Put([]byte(k), []byte(v))
				model[k] = v
			}
		}
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
	for i := 0; i < 3000; i++ {
		tr.Put(key(i), val(i))
	}
	tl := vclock.NewTimeline("host")
	ac := Access{TL: tl, R: hw.HostRates(hw.Cosmos())}
	for it := tr.Scan(nil, nil, ac); it.Valid(); it.Next() {
	}
	if tl.Booked(hw.CatCompareKeys) <= 0 {
		t.Fatal("merged scan booked no internal-key comparison time")
	}
}
