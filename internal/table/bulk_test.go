package table

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
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

// smallTreeCatalog is a catalog whose column families cut 4 KiB segments and
// compact, so a few hundred rows make several SSTs per family.
func smallTreeCatalog(t *testing.T) (*Catalog, *flash.Flash) {
	t.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	return NewCatalog(kv.Open(fl, lsm.Config{SegmentBytes: 4 << 10, MaxL1Files: 2, LevelRatio: 3, BaseLevelBytes: 16 << 10})), fl
}

// storedFamily is one column family's SST count and the SHA-256 of its SSTs'
// bytes level by level, C1 newest first.
type storedFamily struct {
	ssts   int
	digest string
}

// storedFamilies digests every column family's SSTs.
func storedFamilies(t *testing.T, cat *Catalog, fl *flash.Flash) map[string]storedFamily {
	t.Helper()
	out := map[string]storedFamily{}
	for _, name := range cat.DB().ColumnFamilies() {
		cf, err := cat.DB().CF(name)
		if err != nil {
			t.Fatal(err)
		}
		h, n := sha256.New(), 0
		for _, lvl := range cf.View().Levels() {
			for _, s := range lvl {
				b, err := fl.ReadAt(s.File(), 0, fl.Size(s.File()), nil, hw.Rates{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
				n++
			}
		}
		out[name] = storedFamily{n, hex.EncodeToString(h.Sum(nil))}
	}
	return out
}

// insertFamilies and insertWritten, insertUsed are what Insert of each
// bulkRows(700) row followed by Flush stored in smallTreeCatalog — per family,
// and the flash bytes written and space used — recorded before that
// single-row write path was deleted.
var (
	insertFamilies = map[string]storedFamily{
		"idx.bulk.idx_score": {2, "e11df30b8db8d561bebdfcb2ee79bbd252fdb4e75a8ce2cac1c7f700c4376530"},
		"idx.bulk.idx_tag":   {2, "703412f451ef2de206e986089fbb81230ede75eb231afbd089b8892a0635b8e7"},
		"tbl.bulk":           {5, "93f25cae50e34f03f3eb77e0633b1801e21432992ba585cab19f608c0e263a33"},
	}
	insertWritten, insertUsed int64 = 150863, 147456
)

// TestBulkLoadMatchesInsert: BulkLoad of encoded rows stores what Insert of
// each row plus Flush stored — SST bytes of every column family and the flash
// counters (insertFamilies) — and counts every row; an index seek finds every
// row whose stored key carries the seek prefix, and the Value-based seek
// prefix is a prefix of the row-derived key of every row holding the value.
func TestBulkLoadMatchesInsert(t *testing.T) {
	s := bulkSchema()
	rows := bulkRows(700)
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
	if w, u := fl.Stats().BytesWritten, fl.Used(); w != insertWritten || u != insertUsed {
		t.Errorf("flash written %d used %d; Insert+Flush wrote %d used %d", w, u, insertWritten, insertUsed)
	}
	if got := storedFamilies(t, cat, fl); !maps.Equal(got, insertFamilies) {
		t.Errorf("BulkLoad stored %v; Insert+Flush stored %v", got, insertFamilies)
	}
	if tbl.RowCount() != int64(len(rows)) {
		t.Fatalf("RowCount %d, rows %d", tbl.RowCount(), len(rows))
	}

	for _, c := range []struct {
		idx, col string
		vals     []Value
	}{{"idx_score", "score", bulkScores}, {"idx_tag", "tag", bulkTags}} {
		ci := s.ColumnIndex(c.col)
		for _, v := range c.vals {
			prefix, err := s.AppendSecondaryPrefix(nil, c.col, v)
			if err != nil {
				t.Fatal(err)
			}
			var want []int32
			for i, vals := range rows {
				key := s.appendIndexKey(nil, ci, slab[i*s.RowBytes():(i+1)*s.RowBytes()])
				if bytes.HasPrefix(key, prefix) && len(key) == len(prefix)+4 {
					want = append(want, vals[0].Int)
				}
				if vals[ci] != v {
					continue
				}
				if !bytes.HasPrefix(key, prefix) || len(key) != len(prefix)+4 || PKFromSecondaryKey(key) != vals[0].Int {
					t.Fatalf("%s = %q, pk %d: the stored key %q is not seek prefix %q + pk", c.col, v, vals[0].Int, key, prefix)
				}
			}
			slices.Sort(want)
			got, err := new(Seeker).IndexSeek(tbl, c.idx, v, lsm.Access{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || len(got) == 0 {
				t.Errorf("%s = %q: the seek finds %d rows, %d stored keys carry its prefix", c.col, v, len(got), len(want))
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
	loadRows(t, tbl, bulkRows(6000)...)
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
