package table

import (
	"bytes"
	"maps"
	"testing"

	"hybridndp/internal/lsm"
)

// valueSetStats derives NDV and IntMinMax from a sample the way CollectStats
// first did: one map[Value]struct{} per column over Record.Get, NULLs skipped.
func valueSetStats(s *Schema, sample []Record, rows int64) (map[string]int64, map[string][2]int32) {
	ndv, minMax := map[string]int64{}, map[string][2]int32{}
	for ci, c := range s.Columns {
		set := map[Value]struct{}{}
		for _, r := range sample {
			v := r.Get(ci)
			if v.Null {
				continue
			}
			set[v] = struct{}{}
			if c.Type == Int32 {
				mm, ok := minMax[c.Name]
				if !ok {
					mm = [2]int32{v.Int, v.Int}
				}
				minMax[c.Name] = [2]int32{min(mm[0], v.Int), max(mm[1], v.Int)}
			}
		}
		d, n := int64(len(set)), int64(len(sample))
		if n > 0 && d*10 >= n*9 {
			d = d * rows / max(n, 1)
		}
		ndv[c.Name] = max(d, 1)
	}
	return ndv, minMax
}

// TestCollectStatsMatchesValueSets: the typed distinct-value sets give the
// NDV and IntMinMax a map[Value] over the sample gives, and the sample is
// every stride-th row in PK order, byte for byte. The table holds NULLs in an
// INT32 and a CHAR column, negative integers (and PKs), NUL-padded CHARs ("",
// "ab", an embedded NUL, a value trimmed to the column) and, at 6,000 rows, a
// sample stride of 2 with a key-like PK column whose NDV scales up. In the
// second variant no row holds 0 or "", the values a NULL's zeroed bytes would
// read as, so a NULL counted as a value changes NDV.
func TestCollectStatsMatchesValueSets(t *testing.T) {
	noZero := func(rows [][]Value) [][]Value {
		for _, r := range rows {
			if r[1] == IntVal(0) {
				r[1] = IntVal(2)
			}
			if r[2] == StrVal("") {
				r[2] = StrVal("zz")
			}
		}
		return rows
	}
	for _, rows := range [][][]Value{bulkRows(300), bulkRows(6000), noZero(bulkRows(6000))} {
		n := len(rows)
		tbl, err := testCatalog(t).CreateTable(bulkSchema())
		if err != nil {
			t.Fatal(err)
		}
		loadRows(t, tbl, rows...)
		st := tbl.CollectStats()
		stride := max(1, int64(n)/maxSampleRows)
		var want [][]byte
		var i int64
		for it := tbl.ScanAll(lsm.Access{}); it.Valid(); it.Next() {
			if i%stride == 0 && len(want) < maxSampleRows {
				want = append(want, bytes.Clone(it.Entry().Value))
			}
			i++
		}
		if len(st.Sample) != len(want) {
			t.Fatalf("%d rows: sample of %d rows, want %d", n, len(st.Sample), len(want))
		}
		for j, r := range st.Sample {
			if !bytes.Equal(r.Data, want[j]) {
				t.Fatalf("%d rows: sample row %d is %x, want %x", n, j, r.Data, want[j])
			}
		}
		ndv, minMax := valueSetStats(tbl.Schema, st.Sample, int64(n))
		if !maps.Equal(st.NDV, ndv) || !maps.Equal(st.IntMinMax, minMax) {
			t.Fatalf("%d rows: NDV %v, IntMinMax %v; the map[Value] reference gives %v, %v", n, st.NDV, st.IntMinMax, ndv, minMax)
		}
		if ndv["id"] != int64(n) || minMax["score"] != [2]int32{-1 << 31, 1 << 30} || ndv["tag"] != 4 { // "abcdefgh-long" stores as "abcdef"
			t.Fatalf("%d rows: reference NDV %v, IntMinMax %v do not cover the cases this test is for", n, ndv, minMax)
		}
	}
}
