package sql

import (
	"reflect"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
)

// TestRenderRoundTripJOB proves the serving layer's SQL-in contract: every
// JOB query and every extension query rendered to SQL and parsed back is
// structurally identical to the hand-built definition, and compiles to a
// byte-identical physical plan. The commands and examples print queries
// through Render, so every workload query they can name must render.
func TestRenderRoundTripJOB(t *testing.T) {
	dsOnce.Do(func() { ds, dsErr = job.Load(0.004, hw.Cosmos()) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	opt := optimizer.New(ds.Cat, hw.Cosmos())
	queries := job.Queries()
	if len(queries) != 113 {
		t.Fatalf("JOB query count = %d, want 113", len(queries))
	}
	queries = append(queries, job.ExtensionQueries()...)
	for _, orig := range queries {
		text, err := Render(orig)
		if err != nil {
			t.Fatalf("%s: Render: %v", orig.Name, err)
		}
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", orig.Name, text, err)
		}
		// Parse names every statement "adhoc"; the name carries no plan
		// structure, so align it before the structural comparison.
		parsed.Name = orig.Name
		if !reflect.DeepEqual(parsed, orig) {
			t.Fatalf("%s: round-trip mismatch\nsql:    %s\nparsed: %+v\norig:   %+v", orig.Name, text, parsed, orig)
		}
		if err := parsed.Validate(ds.Cat); err != nil {
			t.Fatalf("%s: parsed query invalid: %v", orig.Name, err)
		}
		origPlan, err := opt.BuildPlan(orig)
		if err != nil {
			t.Fatalf("%s: BuildPlan(orig): %v", orig.Name, err)
		}
		// A second optimizer: the first would answer an Equal query from its
		// memo without planning it.
		gotPlan, err := optimizer.New(ds.Cat, hw.Cosmos()).BuildPlan(parsed)
		if err != nil {
			t.Fatalf("%s: BuildPlan(parsed): %v", orig.Name, err)
		}
		if gotPlan.String() != origPlan.String() {
			t.Fatalf("%s: plan mismatch\nsql: %s\ngot:\n%s\nwant:\n%s", orig.Name, text, gotPlan, origPlan)
		}
	}
}

// TestNormalizeCanonical proves that parsing and re-rendering is idempotent
// and collapses formatting differences: one line, canonical keyword case and
// spacing, explicit AS everywhere — the canonical text a session interns as
// its statement's plan-cache key.
func TestNormalizeCanonical(t *testing.T) {
	normalize := func(text string) string {
		t.Helper()
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Render(q)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := `select   min(t.title)  from title as t
	       where t.production_year > 1990;`
	b := `SELECT MIN(t.title) FROM title AS t WHERE t.production_year > 1990`
	na, nb := normalize(a), normalize(b)
	if na != nb {
		t.Fatalf("normal forms differ:\n%s\n%s", na, nb)
	}
	if again := normalize(na); again != na {
		t.Fatalf("normal form not idempotent:\n%s\n%s", na, again)
	}
}

// TestParseNestedBooleans covers the grammar the JOB round trip depends on:
// AND groups inside parens, OR over AND, and deep nesting, all preserving
// structure.
func TestParseNestedBooleans(t *testing.T) {
	q := mustParse(t, `SELECT * FROM tab AS a WHERE
		(a.x = 1 AND (a.y = 2 OR a.z = 3 AND a.w = 4) OR a.v = 5)`)
	f := q.Filters["a"]
	got := f.String()
	// Shape: Or{ And{x=1, Or{y=2, And{z=3, w=4}}}, v=5 }.
	want := "(x = 1 AND (y = 2 OR z = 3 AND w = 4) OR v = 5)"
	if got != want {
		t.Fatalf("nested boolean parse = %s, want %s", got, want)
	}
	// Mixed-alias groups must still fail.
	for _, bad := range []string{
		"SELECT * FROM t AS a, u AS b WHERE (a.x = 1 AND b.y = 2) AND a.z = b.w",
		"SELECT * FROM t AS a, u AS b WHERE ((a.x = 1) OR (b.y = 2)) AND a.z = b.w",
		"SELECT * FROM t AS a WHERE (a.x = 1 AND (a.y = 2)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// FuzzParseRenderRoundTrip is the property the plan caches live on: a
// statement that parses and renders comes back from Parse(Render(q)) as an
// Equal query with the same fingerprint, and rendering that again changes
// nothing. The optimizer's memo keys on the fingerprint and serve's cache on
// the rendering, so a statement that drifted through the round trip would
// miss both on every arrival. Text Parse rejects and queries Render refuses
// (see Render) are outside the property. Seeds: testdata/fuzz plus the JOB
// workload.
func FuzzParseRenderRoundTrip(f *testing.F) {
	for _, q := range job.Queries() {
		text, err := Render(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		out, err := Render(q)
		if err != nil {
			return
		}
		q2, err := Parse(out)
		if err != nil {
			t.Fatalf("rendering does not parse: %v\ntext: %q\n out: %q", err, text, out)
		}
		if !q2.Equal(q) || !q.Equal(q2) {
			t.Fatalf("Parse(Render(q)) is not Equal to q\ntext: %q\n out: %q", text, out)
		}
		fp, ok := q.Fingerprint()
		fp2, ok2 := q2.Fingerprint()
		if !ok || !ok2 || fp != fp2 {
			t.Fatalf("fingerprints %x (%v) and %x (%v) differ across the round trip of %q", fp, ok, fp2, ok2, text)
		}
		if again, err := Render(q2); err != nil || again != out {
			t.Fatalf("Render is not a fixed point: %q then %q (%v)", out, again, err)
		}
	})
}

// BenchmarkParse parses the 113 JOB statements per iteration.
func BenchmarkParse(b *testing.B) {
	var texts []string
	for _, q := range job.Queries() {
		text, err := Render(q)
		if err != nil {
			b.Fatal(err)
		}
		texts = append(texts, text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/query")
}
