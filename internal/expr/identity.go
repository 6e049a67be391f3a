package expr

import (
	"slices"

	"hybridndp/internal/table"
)

// Fingerprint is a running 64-bit FNV-1a hash over a structure: every string
// goes in length-prefixed and every node under a tag, so neighbouring fields
// cannot run into each other and And{a, And{b, c}} does not hash like
// And{a, b, c}. The optimizer's plan memo keys on it (query.Fingerprint); a
// fingerprint only ever nominates a candidate, Equal decides.
type Fingerprint uint64

// NewFingerprint returns the empty hash.
func NewFingerprint() Fingerprint { return 14695981039346656037 }

const fnvPrime = 1099511628211

// Word folds one integer in.
func (f Fingerprint) Word(v uint64) Fingerprint {
	return (f ^ Fingerprint(v)) * fnvPrime
}

// Str folds a length-prefixed string in.
func (f Fingerprint) Str(s string) Fingerprint {
	f = f.Word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f = (f ^ Fingerprint(s[i])) * fnvPrime
	}
	return f
}

// Bool folds one flag in.
func (f Fingerprint) Bool(b bool) Fingerprint {
	if b {
		return f.Word(1)
	}
	return f.Word(0)
}

func (f Fingerprint) value(v table.Value) Fingerprint {
	return f.Bool(v.Null).Bool(v.IsI).Word(uint64(uint32(v.Int))).Str(v.Str)
}

// Pred folds a predicate tree in, node by node, each under its type's tag. ok
// is false when the tree holds a Pred implementation from outside this
// package: such a tree has no structural identity, and whoever asked must
// treat it as unique.
func (f Fingerprint) Pred(p Pred) (_ Fingerprint, ok bool) {
	switch q := p.(type) {
	case Cmp:
		return f.Word('c').Str(q.Col).Word(uint64(q.Op)).value(q.Val), true
	case Between:
		return f.Word('b').Str(q.Col).Word(uint64(uint32(q.Lo))).Word(uint64(uint32(q.Hi))), true
	case In:
		f = f.Word('i').Str(q.Col).Word(uint64(len(q.Vals)))
		for _, v := range q.Vals {
			f = f.value(v)
		}
		return f, true
	case Like:
		return f.Word('l').Str(q.Col).Str(q.Pattern).Bool(q.Not), true
	case IsNull:
		return f.Word('n').Str(q.Col).Bool(q.Not), true
	case And:
		return f.Word('&').preds(q.Preds)
	case Or:
		return f.Word('|').preds(q.Preds)
	case Not:
		return f.Word('!').Pred(q.Pred)
	}
	return f, false
}

func (f Fingerprint) preds(ps []Pred) (_ Fingerprint, ok bool) {
	f = f.Word(uint64(len(ps)))
	for _, p := range ps {
		if f, ok = f.Pred(p); !ok {
			return f, false
		}
	}
	return f, true
}

// Equal reports whether two predicate trees are the same structure: same node
// types in the same nesting, same columns, operators and constants. It never
// compares renderings — a conjunction prints alike however it is nested. A
// Pred implementation from outside this package equals nothing, itself
// included.
func Equal(a, b Pred) bool {
	switch x := a.(type) {
	case Cmp, Between, Like, IsNull:
		return a == b // flat comparable structs: same type, same fields
	case In:
		y, ok := b.(In)
		return ok && x.Col == y.Col && slices.Equal(x.Vals, y.Vals)
	case And:
		y, ok := b.(And)
		return ok && slices.EqualFunc(x.Preds, y.Preds, Equal)
	case Or:
		y, ok := b.(Or)
		return ok && slices.EqualFunc(x.Preds, y.Preds, Equal)
	case Not:
		y, ok := b.(Not)
		return ok && Equal(x.Pred, y.Pred)
	}
	return false
}
