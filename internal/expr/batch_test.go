package expr

import (
	"math/rand"
	"testing"

	"hybridndp/internal/table"
)

func batchTestSchema(t *testing.T) *table.Schema {
	t.Helper()
	s, err := table.NewSchema("t", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "n", Type: table.Int32, Size: 4, Nullable: true},
		{Name: "name", Type: table.Char, Size: 8, Nullable: true},
		{Name: "code", Type: table.Char, Size: 4, Nullable: true},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// batchTestRows builds a deterministic mix of rows covering NULLs, empty
// strings, padded strings and boundary integers.
func batchTestRows(t *testing.T, s *table.Schema) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	names := []string{"", "a", "ab", "abc", "abcdefgh", "zz", "Ab", "a%b", "a_b"}
	codes := []string{"", "x", "xy", "xyz", "zzzz"}
	var rows [][]byte
	for i := 0; i < 500; i++ {
		vals := []table.Value{
			table.IntVal(int32(i - 250)),
			table.IntVal(int32(rng.Intn(20) - 10)),
			table.StrVal(names[rng.Intn(len(names))]),
			table.StrVal(codes[rng.Intn(len(codes))]),
		}
		if rng.Intn(4) == 0 {
			vals[1] = table.NullVal()
		}
		if rng.Intn(4) == 0 {
			vals[2] = table.NullVal()
		}
		if rng.Intn(5) == 0 {
			vals[3] = table.NullVal()
		}
		row, err := s.EncodeRow(vals)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return rows
}

// batchTestPreds enumerates predicate shapes including every edge case the
// compiler folds: NULL constants, type mismatches, unknown columns, NOT LIKE,
// IS [NOT] NULL on unknown columns, nested combinators.
func batchTestPreds() []Pred {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	var preds []Pred
	for _, op := range ops {
		preds = append(preds,
			Cmp{Col: "n", Op: op, Val: table.IntVal(3)},
			Cmp{Col: "name", Op: op, Val: table.StrVal("ab")},
			Cmp{Col: "name", Op: op, Val: table.StrVal("")},
		)
	}
	for _, c := range []string{"ab\x00", "abcdefgh", "abcdefghi", "a\x00b"} {
		// Constants no stored payload equals (trailing NUL, longer than the
		// column) beside one filling it: the in-place comparison's edges.
		preds = append(preds,
			Cmp{Col: "name", Op: Eq, Val: table.StrVal(c)},
			Cmp{Col: "name", Op: Ne, Val: table.StrVal(c)},
			Cmp{Col: "name", Op: Le, Val: table.StrVal(c)},
			In{Col: "name", Vals: []table.Value{table.StrVal(c), table.StrVal("zz")}},
			Like{Col: "name", Pattern: c},
			Like{Col: "name", Pattern: c + "%"},
		)
	}
	preds = append(preds,
		Cmp{Col: "n", Op: Eq, Val: table.NullVal()},       // NULL const
		Cmp{Col: "n", Op: Eq, Val: table.StrVal("3")},     // type mismatch
		Cmp{Col: "name", Op: Eq, Val: table.IntVal(3)},    // type mismatch
		Cmp{Col: "missing", Op: Eq, Val: table.IntVal(1)}, // unknown column
		Between{Col: "n", Lo: -3, Hi: 4},
		Between{Col: "n", Lo: 4, Hi: -3},       // empty range
		Between{Col: "name", Lo: 0, Hi: 10},    // wrong type
		Between{Col: "missing", Lo: 0, Hi: 10}, // unknown column
		In{Col: "n", Vals: []table.Value{table.IntVal(1), table.IntVal(5), table.NullVal(), table.StrVal("x")}},
		In{Col: "n", Vals: []table.Value{table.IntVal(-9), table.IntVal(-2), table.IntVal(0), table.IntVal(1),
			table.IntVal(2), table.IntVal(3), table.IntVal(4), table.IntVal(5), table.IntVal(6), table.IntVal(7)}}, // > smallInList
		In{Col: "name", Vals: []table.Value{table.StrVal("a"), table.StrVal("zz"), table.IntVal(7)}},
		In{Col: "name", Vals: []table.Value{table.IntVal(7)}}, // no usable consts
		In{Col: "missing", Vals: []table.Value{table.IntVal(1)}},
		Like{Col: "name", Pattern: "a%"},
		Like{Col: "name", Pattern: "a%", Not: true},
		Like{Col: "name", Pattern: "%b%"},
		Like{Col: "name", Pattern: "a_c"},
		Like{Col: "name", Pattern: ""},
		Like{Col: "n", Pattern: "a%"},                  // integer column
		Like{Col: "missing", Pattern: "a%", Not: true}, // unknown column
		IsNull{Col: "n"},
		IsNull{Col: "n", Not: true},
		IsNull{Col: "name"},
		IsNull{Col: "missing"}, // unknown: always NULL
		IsNull{Col: "missing", Not: true},
	)
	preds = append(preds,
		And{Preds: []Pred{Between{Col: "n", Lo: -5, Hi: 5}, Like{Col: "name", Pattern: "a%"}}},
		Or{Preds: []Pred{Cmp{Col: "n", Op: Eq, Val: table.IntVal(2)}, IsNull{Col: "code"}}},
		Not{Pred: Like{Col: "name", Pattern: "%b"}},
		And{Preds: []Pred{
			Or{Preds: []Pred{IsNull{Col: "n"}, Cmp{Col: "n", Op: Gt, Val: table.IntVal(0)}}},
			Not{Pred: Cmp{Col: "code", Op: Eq, Val: table.StrVal("xy")}},
		}},
	)
	return preds
}

// TestBatchPredMatchesEval is the compiler's semantic parity gate: for every
// predicate shape and every row, the vectorized filter and the scalar EvalRow
// must agree exactly with Pred.Eval.
func TestBatchPredMatchesEval(t *testing.T) {
	s := batchTestSchema(t)
	rows := batchTestRows(t, s)
	for _, p := range batchTestPreds() {
		bp := Compile(s, p)
		if bp == nil {
			t.Fatalf("%s: compiled to nil", p)
		}
		var want []int32
		for i, row := range rows {
			scalar := p.Eval(table.Record{Schema: s, Data: row})
			if got := bp.EvalRow(row); got != scalar {
				t.Fatalf("%s: EvalRow row %d = %v, scalar Eval = %v", p, i, got, scalar)
			}
			if scalar {
				want = append(want, int32(i))
			}
		}
		sel := make([]int32, len(rows))
		for i := range sel {
			sel[i] = int32(i)
		}
		got := bp.Filter(rows, sel)
		if len(got) != len(want) {
			t.Fatalf("%s: Filter kept %d rows, scalar kept %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Filter[%d] = %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

// TestLikeEveryPath pins LIKE on the scalar evaluator, the compiled scalar
// path and the compiled filter alike, over an 8-byte CHAR column. The rows
// with a '%' in the data are the ones the literal-before-wildcard matcher got
// wrong ('a%b' LIKE 'a%' was false); the rest fence the segment kernel: empty
// patterns and values, '%'-only patterns, a value filling the column, prefix
// and suffix that may not overlap, '_' patterns on the general matcher.
func TestLikeEveryPath(t *testing.T) {
	s := batchTestSchema(t)
	cases := []struct {
		value, pattern string
		want           bool
	}{
		{"a%b", "a%", true},
		{"a%b", "a%b", true},
		{"a%b", "%b", true},
		{"a%b", "a", false},
		{"a%b", "%%%", true},
		{"a%", "a%", true},
		{"%", "a%", false},
		{"x", "%%", true},
		{"", "%%", true},
		{"", "%", true},
		{"abc", "%", true},
		{"", "", true},
		{"x", "", false},
		{"", "a%", false},
		{"abcdefgh", "abcdefgh", true},
		{"abcdefgh", "abc%", true},
		{"abcdefgh", "%fgh", true},
		{"abcdefgh", "%h", true},
		{"abcdefgh", "a%d%h", true},
		{"abcdefgh", "abcdefghi", false},
		{"abcdefgh", "%abcdefghi%", false},
		{"abcdefgh", "abcdefgh_", false},
		{"abcdefgh", "abcdefg_", true},
		{"abcdefg", "abcdefgh", false},
		{"abc", "abcd", false},
		{"abcd", "abc", false},
		{"aba", "ab%ba", false},
		{"abba", "ab%ba", true},
		{"xaxbx", "%a%b%", true},
		{"xbxax", "%a%b%", false},
		{"abab", "%ab", true},
		{"abc", "a_c", true},
		{"ac", "a_c", false},
		{"a_c", "a_c", true},
		{"a%c", "a_c", true},
		{"abc", "___", true},
		{"abc", "__", false},
		{"abc", "_%", true},
		{"", "_%", false},
		{"a_b", "a%", true},
		{"a_b", "a_b", true},
	}
	for _, c := range cases {
		row, err := s.EncodeRow([]table.Value{table.IntVal(1), table.NullVal(), table.StrVal(c.value), table.NullVal()})
		if err != nil {
			t.Fatal(err)
		}
		rows := [][]byte{row}
		for _, not := range []bool{false, true} {
			p := Like{Col: "name", Pattern: c.pattern, Not: not}
			bp := Compile(s, p)
			want := c.want != not
			if got := p.Eval(table.Record{Schema: s, Data: row}); got != want {
				t.Errorf("%q %s: Pred.Eval = %v, want %v", c.value, p, got, want)
			}
			if got := bp.EvalRow(row); got != want {
				t.Errorf("%q %s: EvalRow = %v, want %v", c.value, p, got, want)
			}
			if got := len(bp.Filter(rows, []int32{0})) == 1; got != want {
				t.Errorf("%q %s: Filter keeps = %v, want %v", c.value, p, got, want)
			}
		}
	}
}

// TestCompileNilPred documents the select-all contract.
func TestCompileNilPred(t *testing.T) {
	if Compile(batchTestSchema(t), nil) != nil {
		t.Fatal("nil predicate must compile to nil")
	}
}
