package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
)

// bulkSchema has a nullable INT32 and a nullable CHAR secondary index.
func bulkSchema() *Schema {
	return MustSchema("bulk", []Column{
		{Name: "id", Type: Int32, Size: 4},
		{Name: "score", Type: Int32, Size: 4, Nullable: true},
		{Name: "tag", Type: Char, Size: 6, Nullable: true},
		{Name: "note", Type: Char, Size: 5},
	}, "id",
		SecondaryIndex{Name: "idx_score", Column: "score"},
		SecondaryIndex{Name: "idx_tag", Column: "tag"})
}

var (
	bulkScores = []Value{NullVal(), IntVal(-1 << 31), IntVal(-7), IntVal(-1), IntVal(0), IntVal(3), IntVal(1 << 30)}
	// "abcdefgh-long" is longer than the column and stores as "abcdef".
	bulkTags = []Value{NullVal(), StrVal(""), StrVal("ab"), StrVal("a\x00b"), StrVal("abcdef"), StrVal("abcdefgh-long")}
)

// bulkRows draws n rows with unique primary keys, negative ones included, in
// random order.
func bulkRows(n int) [][]Value {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]Value, n)
	for i, pk := range rng.Perm(n) {
		rows[i] = []Value{IntVal(int32(pk - n/2)), bulkScores[rng.Intn(len(bulkScores))],
			bulkTags[rng.Intn(len(bulkTags))], StrVal(fmt.Sprintf("n%d", rng.Intn(1000)))}
	}
	return rows
}

// smallTreeCatalog is a catalog whose column families rotate a 4 KiB
// memtable and compact, so a few hundred rows make several SSTs per family.
func smallTreeCatalog(t *testing.T) (*Catalog, *flash.Flash) {
	t.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	return NewCatalog(kv.Open(fl, hw.Cosmos(), lsm.Config{MemTableBytes: 4 << 10, MaxL1Files: 2, LevelRatio: 3, BaseLevelBytes: 16 << 10})), fl
}

// storedSSTs reads every column family's SST bytes in Placement order.
func storedSSTs(t *testing.T, cat *Catalog, fl *flash.Flash) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	for _, name := range cat.DB().ColumnFamilies() {
		cf, err := cat.DB().CF(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, li := range cf.Placement() {
			for _, s := range li.SSTs {
				b, err := fl.ReadAt(s.File, 0, fl.Size(s.File), nil, hw.Rates{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				out[name] = append(out[name], b)
			}
		}
	}
	return out
}

// TestBulkLoadMatchesInsert: BulkLoad of encoded rows stores what Insert of
// each row plus Flush stores — SST bytes of every column family, row count,
// and what an index seek finds for every value — and the Value-based seek
// prefix is a prefix of the row-derived key of every row holding the value.
func TestBulkLoadMatchesInsert(t *testing.T) {
	s := bulkSchema()
	rows := bulkRows(700)

	refCat, refFl := smallTreeCatalog(t)
	ref, err := refCat.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, vals := range rows {
		if err := ref.Insert(vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	cat, fl := smallTreeCatalog(t)
	tbl, err := cat.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	var slab []byte
	for _, vals := range rows {
		if slab, err = s.AppendRow(slab, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.BulkLoad(slab); err != nil {
		t.Fatal(err)
	}

	want, got := storedSSTs(t, refCat, refFl), storedSSTs(t, cat, fl)
	if len(want["idx.bulk.idx_tag"]) < 2 || len(want["tbl.bulk"]) < 2 {
		t.Fatalf("reference load made %d tag-index and %d data SSTs; the test wants several", len(want["idx.bulk.idx_tag"]), len(want["tbl.bulk"]))
	}
	for name, ssts := range want {
		if !slices.EqualFunc(ssts, got[name], bytes.Equal) {
			t.Errorf("%s: BulkLoad stored %d SSTs that differ from Insert+Flush's %d", name, len(got[name]), len(ssts))
		}
	}
	if ref.RowCount() != tbl.RowCount() || tbl.RowCount() != int64(len(rows)) {
		t.Fatalf("RowCount: Insert %d, BulkLoad %d, rows %d", ref.RowCount(), tbl.RowCount(), len(rows))
	}

	for _, c := range []struct {
		idx, col string
		vals     []Value
	}{{"idx_score", "score", bulkScores}, {"idx_tag", "tag", bulkTags}} {
		ci := s.ColumnIndex(c.col)
		for _, v := range c.vals {
			a, err := ref.IndexSeek(c.idx, v, lsm.Access{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := tbl.IndexSeek(c.idx, v, lsm.Access{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a, b) || len(b) == 0 {
				t.Errorf("%s = %q: Insert finds %d rows, BulkLoad %d", c.col, v, len(a), len(b))
			}
			prefix, err := s.SecondaryPrefix(c.col, v)
			if err != nil {
				t.Fatal(err)
			}
			for i, vals := range rows {
				if vals[ci] != v {
					continue
				}
				key := s.appendIndexKey(nil, ci, slab[i*s.RowBytes():(i+1)*s.RowBytes()])
				if !bytes.HasPrefix(key, prefix) || len(key) != len(prefix)+4 || PKFromSecondaryKey(key) != vals[0].Int {
					t.Fatalf("%s = %q, pk %d: the stored key %q is not seek prefix %q + pk", c.col, v, vals[0].Int, key, prefix)
				}
			}
		}
	}
}

// TestCollectStatsConcurrentCallersShareOne: callers racing to collect a
// fresh table's statistics all get the one object the table keeps, on whose
// identity the optimizer's plan memo keys validity.
func TestCollectStatsConcurrentCallersShareOne(t *testing.T) {
	cat := testCatalog(t)
	tbl, err := cat.CreateTable(bulkSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, vals := range bulkRows(6000) {
		if err := tbl.Insert(vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([]*Stats, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = tbl.CollectStats()
		}()
	}
	close(start)
	wg.Wait()
	kept := tbl.CollectStats()
	for i, st := range got {
		if st != kept {
			t.Fatalf("caller %d got statistics %p, the table keeps %p", i, st, kept)
		}
	}
}
