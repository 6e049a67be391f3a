package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridndp/internal/table"
)

// fuzzSrc deals the fuzzer's bytes out as bounded choices; an exhausted input
// reads as zeros, so every byte string decodes to some case.
type fuzzSrc struct {
	data []byte
	pos  int
}

func (s *fuzzSrc) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *fuzzSrc) intn(n int) int { return int(s.byte()) % n }

// fuzzAlphabet keeps values, constants and patterns colliding: two letters,
// both LIKE wildcards (as data and as pattern) and NUL (embedded, trailing, in
// patterns and constants).
const fuzzAlphabet = "ab%_\x00"

// str draws a string of up to maxLen bytes, of up to two most of the time —
// short enough that a constant often equals a stored value.
func (s *fuzzSrc) str(maxLen int) string {
	if s.intn(3) > 0 {
		maxLen = min(maxLen, 2)
	}
	b := make([]byte, s.intn(maxLen+1))
	for i := range b {
		b[i] = fuzzAlphabet[s.intn(len(fuzzAlphabet))]
	}
	return string(b)
}

var fuzzWidths = []int{1, 7, 8, 9, 40}

// fuzzCase decodes a schema (an Int32 key plus one to four nullable Int32 or
// CHAR columns of the widths above), up to 24 rows and one predicate tree.
func fuzzCase(t *testing.T, data []byte) (*table.Schema, [][]byte, Pred) {
	s := &fuzzSrc{data: data}
	cols := []table.Column{{Name: "id", Type: table.Int32, Size: 4}}
	for i, n := 0, 1+s.intn(4); i < n; i++ {
		c := table.Column{Name: fmt.Sprintf("c%d", i), Type: table.Int32, Size: 4, Nullable: true}
		if s.intn(4) > 0 {
			c.Type, c.Size = table.Char, fuzzWidths[s.intn(len(fuzzWidths))]
		}
		cols = append(cols, c)
	}
	schema, err := table.NewSchema("t", cols, "id")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]byte
	for r, n := 0, 1+s.intn(24); r < n; r++ {
		vals := []table.Value{table.IntVal(int32(r))}
		for _, c := range cols[1:] {
			switch {
			case s.intn(5) == 0:
				vals = append(vals, table.NullVal())
			case c.Type == table.Int32:
				vals = append(vals, table.IntVal(int32(s.intn(7))-3))
			case s.intn(4) == 0: // a value filling the whole width
				b := make([]byte, c.Size)
				for i := range b {
					b[i] = fuzzAlphabet[s.intn(4)]
				}
				vals = append(vals, table.StrVal(string(b)))
			default:
				vals = append(vals, table.StrVal(s.str(min(c.Size, 6))))
			}
		}
		row, err := schema.EncodeRow(vals)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return schema, rows, fuzzPred(s, cols, 3)
}

// fuzzConst draws a constant of any kind — the column's type or not, NULL.
func fuzzConst(s *fuzzSrc) table.Value {
	switch s.intn(8) {
	case 0:
		return table.NullVal()
	case 1, 2, 3:
		return table.IntVal(int32(s.intn(7)) - 3)
	}
	return table.StrVal(s.str(9))
}

func fuzzPred(s *fuzzSrc, cols []table.Column, depth int) Pred {
	col := "missing"
	if i := s.intn(len(cols) + 1); i < len(cols) {
		col = cols[i].Name
	}
	kinds := 8
	if depth == 0 {
		kinds = 5 // leaves only
	}
	switch s.intn(kinds) {
	case 0:
		return Cmp{Col: col, Op: CmpOp(s.intn(6)), Val: fuzzConst(s)}
	case 1:
		return Between{Col: col, Lo: int32(s.intn(7)) - 3, Hi: int32(s.intn(7)) - 3}
	case 2:
		vals := make([]table.Value, s.intn(11))
		for i := range vals {
			vals[i] = fuzzConst(s)
		}
		return In{Col: col, Vals: vals}
	case 3:
		return Like{Col: col, Pattern: s.str(6), Not: s.intn(2) == 1}
	case 4:
		return IsNull{Col: col, Not: s.intn(2) == 1}
	case 5, 6:
		kids := make([]Pred, 1+s.intn(3))
		for i := range kids {
			kids[i] = fuzzPred(s, cols, depth-1)
		}
		if s.intn(2) == 0 {
			return And{Preds: kids}
		}
		return Or{Preds: kids}
	}
	return Not{Pred: fuzzPred(s, cols, depth-1)}
}

// checkCompiledMatchesEval asserts Filter ≡ EvalRow ≡ Pred.Eval on every row.
func checkCompiledMatchesEval(t *testing.T, schema *table.Schema, rows [][]byte, p Pred) {
	t.Helper()
	bp := Compile(schema, p)
	sel := make([]int32, len(rows))
	var want []int32
	for i, row := range rows {
		sel[i] = int32(i)
		scalar := p.Eval(table.Record{Schema: schema, Data: row})
		if got := bp.EvalRow(row); got != scalar {
			t.Fatalf("%s on row %d %q: EvalRow %v, Pred.Eval %v", p, i, row, got, scalar)
		}
		if scalar {
			want = append(want, int32(i))
		}
	}
	if got := bp.Filter(rows, sel); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Filter kept %v, Pred.Eval keeps %v", p, got, want)
	}
}

// FuzzCompiledPredMatchesEval is the net under the compiled kernels: random
// schemas, rows and predicate trees over every node kind, compiled and scalar
// evaluation compared row by row. `go test` runs the committed seeds in
// testdata/fuzz; `go test -run '^$' -fuzz FuzzCompiledPredMatchesEval
// ./internal/expr` searches.
func FuzzCompiledPredMatchesEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, rows, p := fuzzCase(t, data)
		checkCompiledMatchesEval(t, schema, rows, p)
	})
}

// TestCompiledPredMatchesEvalRandom runs the fuzz target's check over a fixed
// pseudo-random sample of inputs, so tier-1 covers more than the seeds.
func TestCompiledPredMatchesEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	data := make([]byte, 512)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		schema, rows, p := fuzzCase(t, data)
		checkCompiledMatchesEval(t, schema, rows, p)
	}
}
