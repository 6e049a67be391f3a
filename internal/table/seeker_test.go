package table

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
	"hybridndp/internal/vclock"
)

// seekTable is personSchema's table over n rows in one load, so every index
// is one SST, the shape of a JOB index.
func seekTable(t testing.TB, n int) *Table {
	t.Helper()
	cat := testCatalog(t)
	tbl, err := cat.CreateTable(personSchema())
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"berlin", "tokyo", "lima"}
	var rows [][]Value
	for i := int32(1); i <= int32(n); i++ {
		rows = append(rows, []Value{IntVal(i), StrVal(fmt.Sprintf("p%05d", i)), IntVal(20 + i%50), StrVal(cities[int(i)%3])})
	}
	loadRows(t, tbl, rows...)
	return tbl
}

// TestSeekerMatchesIndexSeek runs one seeker through seeks of both indexes,
// string and integer values, hits and misses, and checks each list and the
// virtual time it booked against a new seeker's.
func TestSeekerMatchesIndexSeek(t *testing.T) {
	tbl := seekTable(t, 3000)
	r := hw.HostRates(hw.Cosmos())
	var s Seeker
	for _, c := range []struct {
		idx string
		v   Value
	}{
		{"idx_city", StrVal("tokyo")}, {"idx_age", IntVal(33)}, {"idx_city", StrVal("lima")},
		{"idx_city", StrVal("oslo")}, {"idx_age", IntVal(20)}, {"idx_age", NullVal()}, {"idx_city", StrVal("berlin")},
	} {
		tlNew, tlReused := vclock.NewTimeline("host"), vclock.NewTimeline("host")
		want, err := new(Seeker).IndexSeek(tbl, c.idx, c.v, lsm.Access{TL: tlNew, R: r})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.IndexSeek(tbl, c.idx, c.v, lsm.Access{TL: tlReused, R: r})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v: reused seeker found %d pks, a new one %d", c.idx, c.v, len(got), len(want))
		}
		if tlNew.Now() != tlReused.Now() {
			t.Fatalf("%s = %v: reused seeker booked %v ns, a new one %v", c.idx, c.v, float64(tlReused.Now()), float64(tlNew.Now()))
		}
	}
	if _, err := s.IndexSeek(tbl, "nope", IntVal(1), lsm.Access{}); err == nil {
		t.Fatal("unknown index must fail")
	}
}

// TestWarmSeekerAllocatesNothing is the allocation guard of the BNLI probe's
// index stage: a warm seeker's seek allocates nothing.
func TestWarmSeekerAllocatesNothing(t *testing.T) {
	tbl := seekTable(t, 3000)
	ac := lsm.Access{TL: vclock.NewTimeline("host"), R: hw.HostRates(hw.Cosmos())}
	var s Seeker
	seek := func() {
		pks, err := s.IndexSeek(tbl, "idx_city", StrVal("tokyo"), ac)
		if err != nil || len(pks) != 1000 {
			t.Fatalf("seek found %d of 1000 pks (err %v)", len(pks), err)
		}
	}
	seek()
	if n := testing.AllocsPerRun(10, seek); n != 0 {
		t.Fatalf("a warm seeker's IndexSeek made %v allocations, want 0", n)
	}
}

// TestAppendKeyFormsMatch pins the append forms to the key bytes they replace:
// AppendSecondaryPrefix appends to a head what it builds alone, and
// appendPrefixEnd appends the successor of the prefix or returns nil,
// unbounded, for an all-0xff one.
func TestAppendKeyFormsMatch(t *testing.T) {
	s := personSchema()
	head := []byte("head")
	for _, c := range []struct {
		col string
		v   Value
	}{
		{"city", StrVal("lima")}, {"city", StrVal("a-city-name-longer-than-ten")}, {"city", NullVal()},
		{"age", IntVal(-5)}, {"age", IntVal(1 << 30)}, {"age", NullVal()},
	} {
		want, err := s.AppendSecondaryPrefix(nil, c.col, c.v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.AppendSecondaryPrefix(slices.Clone(head), c.col, c.v)
		if err != nil || !bytes.Equal(got, append(slices.Clone(head), want...)) {
			t.Fatalf("AppendSecondaryPrefix(%s = %v) = %x, %v; want head+%x", c.col, c.v, got, err, want)
		}
	}
	for _, c := range []struct{ prefix, end []byte }{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xff, 0xff}, []byte{2}},
		{[]byte{0xff, 0xff}, nil},
	} {
		got := appendPrefixEnd(slices.Clone(head), c.prefix)
		if c.end == nil {
			if got != nil {
				t.Fatalf("appendPrefixEnd(%x) = %x, want nil", c.prefix, got)
			}
			continue
		}
		if !bytes.Equal(got, append(slices.Clone(head), c.end...)) {
			t.Fatalf("appendPrefixEnd(%x) = %x, want head+%x", c.prefix, got, c.end)
		}
	}
	if _, err := s.AppendSecondaryPrefix(nil, "nope", IntVal(1)); err == nil {
		t.Fatal("unknown column must fail")
	}
}

// BenchmarkIndexSeek seeks one city's 1,000 primary keys out of a 3,000-row
// single-SST index with a new seeker per seek and with one
// reused seeker (what an engine's scratch holds).
func BenchmarkIndexSeek(b *testing.B) {
	tbl := seekTable(b, 3000)
	ac := lsm.Access{TL: vclock.NewTimeline("host"), R: hw.HostRates(hw.Cosmos())}
	var s Seeker
	for _, mode := range []string{"new", "reused"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var pks []int32
				var err error
				if mode == "new" {
					pks, err = new(Seeker).IndexSeek(tbl, "idx_city", StrVal("tokyo"), ac)
				} else {
					pks, err = s.IndexSeek(tbl, "idx_city", StrVal("tokyo"), ac)
				}
				if err != nil || len(pks) != 1000 {
					b.Fatalf("seek found %d of 1000 pks (err %v)", len(pks), err)
				}
			}
		})
	}
}
