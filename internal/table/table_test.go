package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/vclock"
)

func testCatalog(t testing.TB) *Catalog {
	t.Helper()
	fl := flash.New(hw.Cosmos(), 0)
	db := kv.Open(fl, lsm.DefaultConfig())
	return NewCatalog(db)
}

// loadRows encodes rows with AppendRow and bulk-loads them into tbl.
func loadRows(t testing.TB, tbl *Table, rows ...[]Value) {
	t.Helper()
	var slab []byte
	for _, vals := range rows {
		var err error
		if slab, err = tbl.Schema.AppendRow(slab, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.BulkLoad(slab); err != nil {
		t.Fatal(err)
	}
}

func personSchema() *Schema {
	return MustSchema("person", []Column{
		{Name: "id", Type: Int32, Size: 4},
		{Name: "name", Type: Char, Size: 12, Nullable: true},
		{Name: "age", Type: Int32, Size: 4, Nullable: true},
		{Name: "city", Type: Char, Size: 10},
	}, "id",
		SecondaryIndex{Name: "idx_city", Column: "city"},
		SecondaryIndex{Name: "idx_age", Column: "age"})
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func() (*Schema, error)
	}{
		{"no name", func() (*Schema, error) { return NewSchema("", []Column{{Name: "id", Type: Int32}}, "id") }},
		{"no columns", func() (*Schema, error) { return NewSchema("t", nil, "id") }},
		{"dup column", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Int32}, {Name: "a", Type: Int32}}, "a")
		}},
		{"char without size", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Char}}, "a")
		}},
		{"missing pk", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Int32}}, "b")
		}},
		{"char pk", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Char, Size: 4}}, "a")
		}},
		{"nullable pk", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Int32, Nullable: true}}, "a")
		}},
		{"bad index column", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Int32}}, "a", SecondaryIndex{Name: "i", Column: "zz"})
		}},
		{"dup index name", func() (*Schema, error) {
			return NewSchema("t", []Column{{Name: "a", Type: Int32}, {Name: "b", Type: Int32}}, "a",
				SecondaryIndex{Name: "i", Column: "a"}, SecondaryIndex{Name: "i", Column: "b"})
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRowLayoutAlignment(t *testing.T) {
	s := personSchema()
	// bitmap 4 + id 4 + name 12 + age 4 + city 12 (10→12 aligned) = 36.
	if s.RowBytes() != 36 {
		t.Fatalf("RowBytes = %d, want 36 (4-byte alignment per paper)", s.RowBytes())
	}
	if s.ColumnStoredBytes("city") != 12 {
		t.Fatalf("city stored bytes = %d, want 12", s.ColumnStoredBytes("city"))
	}
	if s.ColumnStoredBytes("id") != 4 {
		t.Fatal("int column must store 4 bytes")
	}
	if s.ColumnStoredBytes("missing") != 0 {
		t.Fatal("unknown column must report 0")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := personSchema()
	row, err := s.AppendRow(nil, []Value{IntVal(7), StrVal("alice"), IntVal(33), StrVal("berlin")})
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Schema: s, Data: row}
	if r.PK() != 7 {
		t.Fatalf("PK = %d", r.PK())
	}
	if v := r.GetByName("name"); v.Str != "alice" || v.Null {
		t.Fatalf("name = %+v", v)
	}
	if v := r.GetByName("age"); v.Int != 33 {
		t.Fatalf("age = %+v", v)
	}
	if v := r.GetByName("city"); v.Str != "berlin" {
		t.Fatalf("city = %+v", v)
	}
}

func TestEncodeNullsAndErrors(t *testing.T) {
	s := personSchema()
	row, err := s.AppendRow(nil, []Value{IntVal(1), NullVal(), NullVal(), StrVal("x")})
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Schema: s, Data: row}
	if !r.GetByName("name").Null || !r.GetByName("age").Null {
		t.Fatal("nulls lost")
	}
	if r.GetByName("city").Null {
		t.Fatal("non-null column reported null")
	}
	// NULL into non-nullable.
	if _, err := s.AppendRow(nil, []Value{IntVal(1), NullVal(), NullVal(), NullVal()}); err == nil {
		t.Fatal("NULL in non-nullable column must fail")
	}
	// Type mismatches.
	if _, err := s.AppendRow(nil, []Value{StrVal("x"), NullVal(), NullVal(), StrVal("c")}); err == nil {
		t.Fatal("string into int column must fail")
	}
	if _, err := s.AppendRow(nil, []Value{IntVal(1), IntVal(2), NullVal(), StrVal("c")}); err == nil {
		t.Fatal("int into char column must fail")
	}
	// Arity.
	if _, err := s.AppendRow(nil, []Value{IntVal(1)}); err == nil {
		t.Fatal("wrong arity must fail")
	}
}

func TestStringTrimming(t *testing.T) {
	s := personSchema()
	long := "a-very-long-name-beyond-twelve"
	row, err := s.AppendRow(nil, []Value{IntVal(1), StrVal(long), NullVal(), StrVal("c")})
	if err != nil {
		t.Fatal(err)
	}
	got := Record{Schema: s, Data: row}.GetByName("name").Str
	if got != long[:12] {
		t.Fatalf("trimmed to %q, want %q (paper: fixed byte lengths via trimming)", got, long[:12])
	}
}

func TestPKEncodingOrderProperty(t *testing.T) {
	f := func(a, b int32) bool {
		ka, kb := EncodePK(a), EncodePK(b)
		if DecodePK(ka) != a || DecodePK(kb) != b {
			return false
		}
		return (a < b) == (bytes.Compare(ka, kb) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// indexKey encodes a person row and returns the key col's secondary index
// stores for it.
func indexKey(t *testing.T, s *Schema, col string, pk int32, age, city Value) []byte {
	t.Helper()
	row, err := s.AppendRow(nil, []Value{IntVal(pk), NullVal(), age, city})
	if err != nil {
		t.Fatal(err)
	}
	return s.appendIndexKey(nil, s.ColumnIndex(col), row)
}

func TestSecondaryKeyOrdering(t *testing.T) {
	s := personSchema()
	// Int secondary keys order numerically, including negatives.
	k1 := indexKey(t, s, "age", 1, IntVal(-5), StrVal("c"))
	k2 := indexKey(t, s, "age", 1, IntVal(3), StrVal("c"))
	k3 := indexKey(t, s, "age", 1, NullVal(), StrVal("c"))
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal("-5 must order before 3")
	}
	if bytes.Compare(k3, k1) >= 0 {
		t.Fatal("NULL must order first")
	}
	// The PK is recoverable from the tail.
	k4 := indexKey(t, s, "city", 4242, NullVal(), StrVal("x"))
	if PKFromSecondaryKey(k4) != 4242 {
		t.Fatal("PK tail lost")
	}
	// Same value, different PKs: prefix matches both.
	p, _ := s.AppendSecondaryPrefix(nil, "city", StrVal("x"))
	if !bytes.HasPrefix(k4, p) {
		t.Fatal("prefix must cover the entry")
	}
	if _, err := s.AppendSecondaryPrefix(nil, "nope", IntVal(1)); err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestInsertGetScanIndexSeek(t *testing.T) {
	cat := testCatalog(t)
	tbl, err := cat.CreateTable(personSchema())
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"berlin", "tokyo", "lima"}
	var rows [][]Value
	for i := int32(1); i <= 300; i++ {
		rows = append(rows, []Value{IntVal(i), StrVal(fmt.Sprintf("p%03d", i)), IntVal(20 + i%50), StrVal(cities[int(i)%3])})
	}
	loadRows(t, tbl, rows...)
	if tbl.RowCount() != 300 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	rec, ok, err := tbl.GetByPK(42, lsm.Access{})
	if err != nil || !ok {
		t.Fatalf("GetByPK: %v %v", ok, err)
	}
	if rec.GetByName("name").Str != "p042" {
		t.Fatalf("wrong row: %v", rec.GetByName("name"))
	}
	if _, ok, _ := tbl.GetByPK(9999, lsm.Access{}); ok {
		t.Fatal("missing PK found")
	}
	// Scan order and completeness.
	n := 0
	prev := int32(-1 << 30)
	for it := tbl.ScanAll(lsm.Access{}); it.Valid(); it.Next() {
		pk := DecodePK(it.Entry().Key)
		if pk <= prev {
			t.Fatal("scan out of PK order")
		}
		prev = pk
		n++
	}
	if n != 300 {
		t.Fatalf("scan found %d rows", n)
	}
	// Index seek returns exactly the matching PKs.
	pks, err := new(Seeker).IndexSeek(tbl, "idx_city", StrVal("tokyo"), lsm.Access{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range pks {
		r, _, _ := tbl.GetByPK(pk, lsm.Access{})
		if r.GetByName("city").Str != "tokyo" {
			t.Fatalf("index seek returned pk %d with city %q", pk, r.GetByName("city").Str)
		}
	}
	want := 0
	for i := int32(1); i <= 300; i++ {
		if int(i)%3 == 1 {
			want++
		}
	}
	if len(pks) != want {
		t.Fatalf("idx_city(tokyo) returned %d pks, want %d", len(pks), want)
	}
	if _, err := new(Seeker).IndexSeek(tbl, "nope", StrVal("x"), lsm.Access{}); err == nil {
		t.Fatal("unknown index must fail")
	}
	if _, ok := tbl.SecondaryIndexFor("city"); !ok {
		t.Fatal("SecondaryIndexFor(city) missing")
	}
	if _, ok := tbl.SecondaryIndexFor("name"); ok {
		t.Fatal("SecondaryIndexFor(name) should not exist")
	}
}

func TestCatalogDuplicatesAndLookup(t *testing.T) {
	cat := testCatalog(t)
	if _, err := cat.CreateTable(personSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable(personSchema()); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if _, err := cat.Table("person"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Table("ghost"); err == nil {
		t.Fatal("missing table must fail")
	}
	if got := cat.Tables(); len(got) != 1 || got[0] != "person" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestStatsFromIndexSamples(t *testing.T) {
	cat := testCatalog(t)
	tbl, _ := cat.CreateTable(personSchema())
	rng := rand.New(rand.NewSource(3))
	var rows [][]Value
	for i := int32(1); i <= 5000; i++ {
		city := "berlin"
		if rng.Intn(10) == 0 {
			city = "tokyo" // ~10%
		}
		rows = append(rows, []Value{IntVal(i), NullVal(), IntVal(int32(rng.Intn(80))), StrVal(city)})
	}
	loadRows(t, tbl, rows...)
	st := tbl.CollectStats()
	if st.RowCount != 5000 {
		t.Fatalf("RowCount = %d", st.RowCount)
	}
	if len(st.Sample) == 0 || len(st.Sample) > 2048 {
		t.Fatalf("sample size %d", len(st.Sample))
	}
	// Selectivity of city='tokyo' should land near 10%.
	sel := st.SelectivityOf(func(r Record) bool { return r.GetByName("city").Str == "tokyo" })
	if sel < 0.04 || sel > 0.2 {
		t.Fatalf("selectivity estimate %.3f, want ≈0.1", sel)
	}
	// PK column is detected as key-like (NDV scaled to the table).
	if st.NDV["id"] < 4000 {
		t.Fatalf("NDV(id) = %d, want ≈5000", st.NDV["id"])
	}
	if st.NDV["city"] > 10 {
		t.Fatalf("NDV(city) = %d, want 2", st.NDV["city"])
	}
	mm := st.IntMinMax["age"]
	if mm[0] < 0 || mm[1] > 79 {
		t.Fatalf("age min/max = %v", mm)
	}
	if st.TotalBytes() != st.RowCount*int64(st.RowBytes) {
		t.Fatal("TotalBytes inconsistent")
	}
	// Eq selectivity from NDV.
	if s := st.EqSelectivity("city"); s < 0.2 || s > 1 {
		t.Fatalf("EqSelectivity(city) = %.3f", s)
	}
	// Stats are cached until the next load invalidates them.
	if tbl.CollectStats() != st {
		t.Fatal("stats not cached")
	}
	loadRows(t, tbl, []Value{IntVal(9999), NullVal(), NullVal(), StrVal("x")})
	if tbl.CollectStats() == st {
		t.Fatal("a load must invalidate stats")
	}
}

func TestValueString(t *testing.T) {
	if NullVal().String() != "NULL" || IntVal(5).String() != "5" || StrVal("x").String() != "x" {
		t.Fatal("Value.String broken")
	}
}

// TestIndexSeekBlockBoundaryVirtualTime pins the merge iterator's one-entry
// look-ahead (DESIGN.md §10 "The storage boundary"): an int-keyed index entry
// is 12 bytes on flash, so a 4 KiB data block closes after 342 of them. Group
// 1 fills block 0 exactly — its seek still reads block 1, because the block
// after is loaded when a block's last entry is handed out — and group 2's
// prefix sorts inside block 0 with no entry of block 0 at or above it, so its
// seek steps into block 1 with a sequential read. The expected instants were
// recorded from the per-entry iterator before scans consumed runs.
func TestIndexSeekBlockBoundaryVirtualTime(t *testing.T) {
	cat := testCatalog(t)
	tbl, err := cat.CreateTable(MustSchema("ev", []Column{
		{Name: "id", Type: Int32, Size: 4},
		{Name: "grp", Type: Int32, Size: 4},
	}, "id", SecondaryIndex{Name: "idx_grp", Column: "grp"}))
	if err != nil {
		t.Fatal(err)
	}
	const perBlock, rest = 342, 500
	var rows [][]Value
	for i := int32(1); i <= perBlock+rest; i++ {
		grp := int32(1)
		if i > perBlock {
			grp = 2
		}
		rows = append(rows, []Value{IntVal(i), IntVal(grp)})
	}
	loadRows(t, tbl, rows...)
	for _, c := range []struct {
		grp        int32
		pks        int
		now, flash float64 // virtual ns, recorded at the parent of the run path
	}{
		{grp: 1, pks: perBlock, now: 106386.66666666667, flash: 106146.66666666667}, // blocks 0, 1
		{grp: 2, pks: rest, now: 109546.66666666667, flash: 109306.66666666667},     // blocks 0, 1, 2
	} {
		tl := vclock.NewTimeline("host")
		pks, err := new(Seeker).IndexSeek(tbl, "idx_grp", IntVal(c.grp), lsm.Access{TL: tl, R: hw.HostRates(hw.Cosmos())})
		if err != nil {
			t.Fatal(err)
		}
		if len(pks) != c.pks || float64(tl.Now()) != c.now || float64(tl.Account()[hw.CatFlashLoad]) != c.flash {
			t.Errorf("grp %d: %d pks at %v ns (flash load %v), want %d at %v (%v); account %v",
				c.grp, len(pks), float64(tl.Now()), float64(tl.Account()[hw.CatFlashLoad]), c.pks, c.now, c.flash, tl.Account())
		}
	}
}
