package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"hybridndp/internal/table"
)

var testSchema = table.MustSchema("t", []table.Column{
	{Name: "id", Type: table.Int32, Size: 4},
	{Name: "note", Type: table.Char, Size: 40, Nullable: true},
	{Name: "year", Type: table.Int32, Size: 4, Nullable: true},
	{Name: "kind", Type: table.Char, Size: 16},
}, "id")

func rec(t *testing.T, id int32, note table.Value, year table.Value, kind string) table.Record {
	t.Helper()
	row, err := testSchema.EncodeRow([]table.Value{table.IntVal(id), note, year, table.StrVal(kind)})
	if err != nil {
		t.Fatal(err)
	}
	return table.Record{Schema: testSchema, Data: row}
}

func TestCmpOperators(t *testing.T) {
	r := rec(t, 5, table.StrVal("(presents)"), table.IntVal(2001), "movie")
	cases := []struct {
		p    Pred
		want bool
	}{
		{Cmp{"id", Eq, table.IntVal(5)}, true},
		{Cmp{"id", Eq, table.IntVal(6)}, false},
		{Cmp{"id", Ne, table.IntVal(6)}, true},
		{Cmp{"id", Lt, table.IntVal(6)}, true},
		{Cmp{"id", Le, table.IntVal(5)}, true},
		{Cmp{"id", Gt, table.IntVal(5)}, false},
		{Cmp{"id", Ge, table.IntVal(5)}, true},
		{Cmp{"kind", Eq, table.StrVal("movie")}, true},
		{Cmp{"kind", Lt, table.StrVal("zzz")}, true},
		{Cmp{"kind", Gt, table.StrVal("zzz")}, false},
		// Type mismatch never matches.
		{Cmp{"id", Eq, table.StrVal("5")}, false},
		{Cmp{"kind", Eq, table.IntVal(0)}, false},
	}
	for i, c := range cases {
		if got := c.p.Eval(r); got != c.want {
			t.Errorf("case %d (%s): got %v", i, c.p, got)
		}
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	r := rec(t, 1, table.NullVal(), table.NullVal(), "x")
	for _, p := range []Pred{
		Cmp{"note", Eq, table.StrVal("a")},
		Cmp{"year", Lt, table.IntVal(3000)},
		Between{"year", 0, 3000},
		In{"note", []table.Value{table.StrVal("a")}},
		Like{Col: "note", Pattern: "%"},
	} {
		if p.Eval(r) {
			t.Errorf("%s must be false on NULL", p)
		}
	}
	if !(IsNull{Col: "note"}).Eval(r) {
		t.Fatal("IS NULL must match")
	}
	if (IsNull{Col: "note", Not: true}).Eval(r) {
		t.Fatal("IS NOT NULL must not match")
	}
	if (IsNull{Col: "kind"}).Eval(r) {
		t.Fatal("non-null column IS NULL must be false")
	}
}

func TestBetweenAndIn(t *testing.T) {
	r := rec(t, 1, table.NullVal(), table.IntVal(1995), "movie")
	if !(Between{"year", 1990, 2000}).Eval(r) {
		t.Fatal("between should match")
	}
	if (Between{"year", 1996, 2000}).Eval(r) {
		t.Fatal("between should not match")
	}
	if !(Between{"year", 1995, 1995}).Eval(r) {
		t.Fatal("between bounds are inclusive")
	}
	in := In{"kind", []table.Value{table.StrVal("episode"), table.StrVal("movie")}}
	if !in.Eval(r) {
		t.Fatal("IN should match")
	}
	if (In{"kind", []table.Value{table.StrVal("x")}}).Eval(r) {
		t.Fatal("IN should not match")
	}
	if in.Terms() != 2 {
		t.Fatalf("IN terms = %d", in.Terms())
	}
	iin := In{"year", []table.Value{table.IntVal(1995)}}
	if !iin.Eval(r) {
		t.Fatal("int IN should match")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%(co-production)%", "note (co-production) 2004", true},
		{"%(co-production)%", "note (presents)", false},
		{"B%", "Bob", true},
		{"B%", "bob", false},
		{"%ing", "running", true},
		{"%ing", "ringer", false},
		{"%a%b%", "xaxbx", true},
		{"%a%b%", "xbxax", false},
		{"__", "ab", true},
		{"__", "abc", false},
		{"%%", "x", true},
		// A '%' in the data is data, not the pattern's wildcard.
		{"a%", "a%b", true},
		{"a%b", "a%b", true},
		{"a%b", "a%", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestLikePredAndNot(t *testing.T) {
	r := rec(t, 1, table.StrVal("(as Metro-Goldwyn-Mayer Pictures)"), table.NullVal(), "x")
	p := Like{Col: "note", Pattern: "%(as Metro-Goldwyn-Mayer Pictures)%"}
	if !p.Eval(r) {
		t.Fatal("LIKE should match")
	}
	np := Like{Col: "note", Pattern: "%(as Metro-Goldwyn-Mayer Pictures)%", Not: true}
	if np.Eval(r) {
		t.Fatal("NOT LIKE should not match")
	}
	// NOT LIKE on NULL is false, not true (SQL semantics).
	rn := rec(t, 1, table.NullVal(), table.NullVal(), "x")
	if np.Eval(rn) {
		t.Fatal("NOT LIKE on NULL must be false")
	}
}

func TestLikeContainsProperty(t *testing.T) {
	// %s% matches exactly when s is a substring (no wildcards inside).
	f := func(hay, needle string) bool {
		if strings.ContainsAny(needle, "%_") || strings.ContainsAny(hay, "%_") {
			return true
		}
		return likeMatch("%"+needle+"%", hay) == strings.Contains(hay, needle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBooleanCombinators(t *testing.T) {
	r := rec(t, 5, table.StrVal("n"), table.IntVal(2000), "movie")
	tr := Cmp{"id", Eq, table.IntVal(5)}
	fa := Cmp{"id", Eq, table.IntVal(6)}
	if !(And{[]Pred{tr, tr}}).Eval(r) || (And{[]Pred{tr, fa}}).Eval(r) {
		t.Fatal("AND broken")
	}
	if !(Or{[]Pred{fa, tr}}).Eval(r) || (Or{[]Pred{fa, fa}}).Eval(r) {
		t.Fatal("OR broken")
	}
	if (Not{tr}).Eval(r) || !(Not{fa}).Eval(r) {
		t.Fatal("NOT broken")
	}
	and := And{[]Pred{tr, fa, Between{"year", 0, 1}}}
	if and.Terms() != 4 {
		t.Fatalf("AND terms = %d, want 4", and.Terms())
	}
	cols := and.Columns()
	if len(cols) != 2 { // id (deduped) + year
		t.Fatalf("AND columns = %v", cols)
	}
}

func TestEqColExtraction(t *testing.T) {
	p := And{[]Pred{
		Like{Col: "note", Pattern: "%x%"},
		Cmp{"kind", Eq, table.StrVal("movie")},
	}}
	v, ok := EqCol(p, "kind")
	if !ok || v.Str != "movie" {
		t.Fatalf("EqCol = %v, %v", v, ok)
	}
	if _, ok := EqCol(p, "note"); ok {
		t.Fatal("LIKE is not an equality")
	}
	if _, ok := EqCol(Cmp{"kind", Ne, table.StrVal("x")}, "kind"); ok {
		t.Fatal("Ne is not an equality")
	}
	// Direct (non-conjunction) form.
	if v, ok := EqCol(Cmp{"kind", Eq, table.StrVal("m")}, "kind"); !ok || v.Str != "m" {
		t.Fatal("direct EqCol broken")
	}
}

func TestStringRendering(t *testing.T) {
	p := And{[]Pred{
		Cmp{"kind", Eq, table.StrVal("movie")},
		Or{[]Pred{Like{Col: "note", Pattern: "a%"}, IsNull{Col: "note"}}},
		Not{Between{"year", 1990, 2000}},
	}}
	s := p.String()
	for _, frag := range []string{"kind = 'movie'", "note LIKE 'a%'", "note IS NULL", "BETWEEN 1990 AND 2000", "NOT ("} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering %q missing %q", s, frag)
		}
	}
}
