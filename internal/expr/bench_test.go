package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridndp/internal/table"
)

// BenchmarkFilter times the compiled kernels a JOB scan spends its filter time
// in, one 1024-row batch per iteration, over a 24- and a 40-byte CHAR column
// (the widths of JOB's kind/role and note/info columns): values of 3 to 20
// bytes, so most of a column is padding, about a tenth of them matching.
func BenchmarkFilter(b *testing.B) {
	words := []string{"(voice)", "(producer)", "(co-production)", "(presents)", "(as Metro)", "USA:2004", "movie", "tv series", "[us]", "Bob"}
	for _, width := range []int{24, 40} {
		s := table.MustSchema("t", []table.Column{
			{Name: "id", Type: table.Int32, Size: 4},
			{Name: "n", Type: table.Int32, Size: 4, Nullable: true},
			{Name: "note", Type: table.Char, Size: width, Nullable: true},
		}, "id")
		rng := rand.New(rand.NewSource(int64(width)))
		rows := make([][]byte, 1024)
		for i := range rows {
			note := table.StrVal(words[rng.Intn(len(words))] + fmt.Sprint(rng.Intn(100)))
			if rng.Intn(10) == 0 {
				note = table.StrVal(words[rng.Intn(len(words))])
			}
			if rng.Intn(20) == 0 {
				note = table.NullVal()
			}
			row, err := s.EncodeRow([]table.Value{table.IntVal(int32(i)), table.IntVal(int32(rng.Intn(10))), note})
			if err != nil {
				b.Fatal(err)
			}
			rows[i] = row
		}
		for _, k := range []struct {
			name string
			p    Pred
		}{
			{"like_infix", Like{Col: "note", Pattern: "%(co-production)%"}},
			{"like_prefix", Like{Col: "note", Pattern: "USA:%"}},
			{"str_eq", Cmp{Col: "note", Op: Eq, Val: table.StrVal("movie")}},
			{"in_str", In{Col: "note", Vals: []table.Value{table.StrVal("movie"), table.StrVal("tv series"), table.StrVal("episode")}}},
			{"int_eq", Cmp{Col: "n", Op: Eq, Val: table.IntVal(3)}},
		} {
			b.Run(fmt.Sprintf("%s/char%d", k.name, width), func(b *testing.B) {
				bp := Compile(s, k.p)
				sel := make([]int32, len(rows))
				kept := 0
				for i := 0; i < b.N; i++ {
					for j := range sel {
						sel[j] = int32(j)
					}
					kept = len(bp.Filter(rows, sel))
				}
				if kept == 0 || kept == len(rows) {
					b.Fatalf("%s keeps %d of %d rows", k.p, kept, len(rows))
				}
			})
		}
	}
}
