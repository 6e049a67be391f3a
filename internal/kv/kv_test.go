package kv

import (
	"bytes"
	"fmt"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
)

func testDB() *DB {
	m := hw.Cosmos()
	return Open(flash.New(m, 0), m, lsm.DefaultConfig())
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
	if _, err := db.CF("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CF("ghost"); err == nil {
		t.Fatal("missing CF must fail")
	}
	if cf.Name() != "data" {
		t.Fatal("CF name")
	}
	db.CreateColumnFamily("idx.a")
	names := db.ColumnFamilies()
	if len(names) != 2 || names[0] != "data" || names[1] != "idx.a" {
		t.Fatalf("ColumnFamilies = %v", names)
	}
}

func TestCFIsolation(t *testing.T) {
	db := testDB()
	a, _ := db.CreateColumnFamily("a")
	b, _ := db.CreateColumnFamily("b")
	a.Put([]byte("k"), []byte("va"))
	b.Put([]byte("k"), []byte("vb"))
	va, ok, _ := a.Get([]byte("k"), lsm.Access{})
	if !ok || !bytes.Equal(va, []byte("va")) {
		t.Fatal("CF a corrupted")
	}
	vb, ok, _ := b.Get([]byte("k"), lsm.Access{})
	if !ok || !bytes.Equal(vb, []byte("vb")) {
		t.Fatal("CF b corrupted")
	}
	a.Delete([]byte("k"))
	if _, ok, _ := a.Get([]byte("k"), lsm.Access{}); ok {
		t.Fatal("delete in a failed")
	}
	if _, ok, _ := b.Get([]byte("k"), lsm.Access{}); !ok {
		t.Fatal("delete in a leaked into b")
	}
}

func TestFlushAllAndStats(t *testing.T) {
	db := testDB()
	cf, _ := db.CreateColumnFamily("x")
	for i := 0; i < 1000; i++ {
		cf.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v"))
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := cf.Stats()
	if st.Entries < 1000 || st.SSTs == 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	pl := cf.Placement()
	if len(pl) < 2 || pl[0].Level != 0 {
		t.Fatalf("placement: %+v", pl)
	}
	if pl[0].MemEntries != 0 {
		t.Fatal("flush left memtable entries behind")
	}
	n := 0
	for it := cf.Scan(nil, nil, lsm.Access{}); it.Valid(); it.Next() {
		n++
	}
	if n != 1000 {
		t.Fatalf("scan found %d", n)
	}
}

func TestSnapshotCapturesSharedState(t *testing.T) {
	db := testDB()
	cf, _ := db.CreateColumnFamily("obj")
	for i := 0; i < 100; i++ {
		cf.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("flushed"))
	}
	cf.Flush()
	// Un-flushed modifications land in C0 and must appear in the snapshot.
	cf.Put([]byte("hot1"), []byte("v1"))
	cf.Delete([]byte("k005"))

	snap, err := db.TakeSnapshot([]string{"obj"})
	if err != nil {
		t.Fatal(err)
	}
	s := snap.CFs["obj"]
	if s.Name != "obj" {
		t.Fatal("snapshot name")
	}
	foundHot, foundTomb := false, false
	for _, e := range s.MemState {
		if bytes.Equal(e.Key, []byte("hot1")) && !e.Tombstone {
			foundHot = true
		}
		if bytes.Equal(e.Key, []byte("k005")) && e.Tombstone {
			foundTomb = true
		}
	}
	if !foundHot || !foundTomb {
		t.Fatalf("shared state incomplete: hot=%v tombstone=%v", foundHot, foundTomb)
	}
	if len(s.Placement) < 2 {
		t.Fatal("snapshot missing placement map")
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
	cf.Put([]byte("a"), []byte("1"))
	small, _ := db.TakeSnapshot([]string{"obj"})
	for i := 0; i < 500; i++ {
		cf.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 50))
	}
	big, _ := db.TakeSnapshot([]string{"obj"})
	if big.Bytes() <= small.Bytes() {
		t.Fatal("snapshot size must grow with un-flushed state")
	}
}
