package expr

import (
	"testing"

	"hybridndp/internal/table"
)

type foreignPred struct{ IsNull }

// TestPredIdentity: Equal and Fingerprint.Pred see structure, not rendering —
// one tree per node kind equals its rebuilt twin and nothing else in the list,
// the last two of which print alike.
func TestPredIdentity(t *testing.T) {
	a := Cmp{Col: "a", Op: Eq, Val: table.IntVal(1)}
	b := Like{Col: "b", Pattern: "x%"}
	c := IsNull{Col: "c"}
	build := func() []Pred {
		return []Pred{
			a, b, c,
			Cmp{Col: "a", Op: Eq, Val: table.StrVal("1")},
			Between{Col: "a", Lo: 1, Hi: 2},
			In{Col: "a", Vals: []table.Value{table.IntVal(1), table.IntVal(2)}},
			In{Col: "a", Vals: []table.Value{table.IntVal(1)}},
			Like{Col: "b", Pattern: "x%", Not: true},
			IsNull{Col: "c", Not: true},
			Not{Pred: c},
			Or{Preds: []Pred{a, b, c}},
			And{Preds: []Pred{a, b, c}},
			And{Preds: []Pred{a, And{Preds: []Pred{b, c}}}},
		}
	}
	ps, twins := build(), build()
	if n := len(ps); ps[n-1].String() != ps[n-2].String() {
		t.Fatalf("the nested and the flat conjunction should print alike: %s vs %s", ps[n-1], ps[n-2])
	}
	for i, p := range ps {
		fp, ok := NewFingerprint().Pred(p)
		if !ok {
			t.Fatalf("%s: no fingerprint", p)
		}
		for j, q := range twins {
			fq, _ := NewFingerprint().Pred(q)
			if eq := Equal(p, q); eq != (i == j) || (fp == fq) != (i == j) {
				t.Errorf("%s vs %s: Equal=%v, fingerprints %x %x", p, q, eq, fp, fq)
			}
		}
	}
	for _, p := range []Pred{foreignPred{c}, And{Preds: []Pred{a, foreignPred{c}}}, Not{}} {
		if _, ok := NewFingerprint().Pred(p); ok || Equal(p, p) {
			t.Errorf("%T holding a foreign (or no) predicate must have no identity", p)
		}
	}
}
