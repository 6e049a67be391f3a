package kv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
)

func testDB() *DB {
	m := hw.Cosmos()
	return Open(flash.New(m, 0), lsm.DefaultConfig())
}

func TestColumnFamilyLifecycle(t *testing.T) {
	db := testDB()
	cf, err := db.CreateColumnFamily("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateColumnFamily("data"); err == nil {
		t.Fatal("duplicate CF must fail")
	}
	if got, err := db.CF("data"); err != nil || got != cf {
		t.Fatalf("CF(data) = %p, %v; want the tree CreateColumnFamily returned, %p", got, err, cf)
	}
	if _, err := db.CF("ghost"); err == nil {
		t.Fatal("missing CF must fail")
	}
	db.CreateColumnFamily("idx.a")
	names := db.ColumnFamilies()
	if len(names) != 2 || names[0] != "data" || names[1] != "idx.a" {
		t.Fatalf("ColumnFamilies = %v", names)
	}
}

// load bulk-loads key/value pairs, a nil value standing for a tombstone.
func load(t *testing.T, cf *lsm.Tree, kvs ...string) {
	t.Helper()
	var entries []lsm.Entry
	for i := 0; i < len(kvs); i += 2 {
		entries = append(entries, lsm.Entry{Key: []byte(kvs[i]), Value: []byte(kvs[i+1]), Tombstone: kvs[i+1] == ""})
	}
	if err := cf.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
}

// numbered returns key/value pairs fmt.Sprintf(format, i) → value for i < n.
func numbered(format string, n int, value string) []string {
	var kvs []string
	for i := 0; i < n; i++ {
		kvs = append(kvs, fmt.Sprintf(format, i), value)
	}
	return kvs
}

func TestCFIsolation(t *testing.T) {
	db := testDB()
	a, _ := db.CreateColumnFamily("a")
	b, _ := db.CreateColumnFamily("b")
	load(t, a, "k", "va")
	load(t, b, "k", "vb")
	va, ok, _ := a.Get([]byte("k"), lsm.Access{})
	if !ok || !bytes.Equal(va, []byte("va")) {
		t.Fatal("CF a corrupted")
	}
	vb, ok, _ := b.Get([]byte("k"), lsm.Access{})
	if !ok || !bytes.Equal(vb, []byte("vb")) {
		t.Fatal("CF b corrupted")
	}
	load(t, a, "k", "")
	if _, ok, _ := a.Get([]byte("k"), lsm.Access{}); ok {
		t.Fatal("delete in a failed")
	}
	if _, ok, _ := b.Get([]byte("k"), lsm.Access{}); !ok {
		t.Fatal("delete in a leaked into b")
	}
}

func TestBulkLoadAndStats(t *testing.T) {
	db := testDB()
	cf, _ := db.CreateColumnFamily("x")
	load(t, cf, numbered("k%06d", 1000, "v")...)
	st := cf.Stats()
	if st.SSTs == 0 || st.Levels < 2 {
		t.Fatalf("stats after load: %+v", st)
	}
	n := 0
	for it := cf.Scan(nil, nil, lsm.Access{}); it.Valid(); it.Next() {
		n++
	}
	if n != 1000 {
		t.Fatalf("scan found %d", n)
	}
}

// TestSnapshotCapturesSharedState: a snapshot carries a view that later loads
// do not reach (update-aware NDP). The later load stays
// below MaxL1Files, so no compaction retires an SST the view holds.
func TestSnapshotCapturesSharedState(t *testing.T) {
	db := testDB()
	cf, _ := db.CreateColumnFamily("obj")
	load(t, cf, numbered("k%03d", 100, "loaded")...)

	snap, err := db.TakeSnapshot([]string{"obj"})
	if err != nil {
		t.Fatal(err)
	}
	load(t, cf, "hot1", "v1", "k005", "")
	s := snap.CFs["obj"]
	if _, ok, _ := s.Get([]byte("hot1"), lsm.Access{}); ok {
		t.Fatal("snapshot view saw a later load")
	}
	if v, ok, _ := s.Get([]byte("k005"), lsm.Access{}); !ok || string(v) != "loaded" {
		t.Fatalf("snapshot view saw a later tombstone: %q %v", v, ok)
	}
	if _, ok, _ := cf.Get([]byte("k005"), lsm.Access{}); ok {
		t.Fatal("live family missed the later tombstone")
	}
	if snap.Bytes() <= 0 {
		t.Fatal("snapshot size estimate")
	}
	if _, err := db.TakeSnapshot([]string{"ghost"}); err == nil {
		t.Fatal("snapshot of missing CF must fail")
	}
}

func TestSnapshotBytesGrowWithState(t *testing.T) {
	db := testDB()
	cf, _ := db.CreateColumnFamily("obj")
	load(t, cf, "a", "1")
	small, _ := db.TakeSnapshot([]string{"obj"})
	load(t, cf, numbered("k%04d", 500, strings.Repeat("x", 50))...)
	big, _ := db.TakeSnapshot([]string{"obj"})
	if big.Bytes() <= small.Bytes() {
		t.Fatal("snapshot size must grow with the placement map")
	}
}

// TestSnapshotBytesPinned pins the NDP command payload of a two-family
// snapshot, one family with C1 and three lower levels (1, 1, 3 and 6 SSTs),
// to the value the per-level placement records gave: every ndp.setup charge
// is priced from it.
func TestSnapshotBytesPinned(t *testing.T) {
	db := Open(flash.New(hw.Cosmos(), 0), lsm.Config{SegmentBytes: 1 << 10, MaxL1Files: 2, LevelRatio: 2, BaseLevelBytes: 4 << 10})
	deep, _ := db.CreateColumnFamily("tbl.deep")
	for b := 0; b < 14; b++ {
		load(t, deep, numbered(fmt.Sprintf("k%%04d-%d", b), 60+b*7, "value")...)
	}
	flat, _ := db.CreateColumnFamily("idx.flat")
	load(t, flat, numbered("i%03d", 20, "v")...)
	snap, err := db.TakeSnapshot([]string{"tbl.deep", "idx.flat"})
	if err != nil {
		t.Fatal(err)
	}
	var ssts []int
	for _, lvl := range snap.CFs["tbl.deep"].Levels() {
		ssts = append(ssts, len(lvl))
	}
	if fmt.Sprint(ssts) != "[1 1 3 6]" {
		t.Fatalf("SSTs per level from C1 = %v, want [1 1 3 6]", ssts)
	}
	if got := snap.Bytes(); got != 640 {
		t.Fatalf("snapshot bytes = %d, want 640", got)
	}
}
