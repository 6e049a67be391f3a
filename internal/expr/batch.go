package expr

import (
	"bytes"
	"encoding/binary"
	"strings"

	"hybridndp/internal/table"
)

// BatchPred is a predicate compiled against one schema for vectorized
// evaluation: leaves carry pre-resolved column offsets and null-bitmap masks,
// so filtering a batch reads raw row bytes directly instead of decoding a
// Value per (row, term). The compiled form is exactly equivalent to calling
// Pred.Eval on each record (TestBatchPredMatchesEval), including the
// edge semantics: comparisons against NULL or a type-mismatched constant are
// false, unknown columns read as NULL (which makes IS NULL on an unknown
// column true), and CHAR payloads compare NUL-trimmed — in place: equality
// tests the constant against the stored prefix and then that the rest is
// padding, %-only LIKE patterns search the column bytes directly.
type BatchPred struct {
	node bnode
}

// bnode is one compiled predicate node.
type bnode interface {
	// filter keeps only the matching row indices of sel, in ascending order,
	// reusing sel's storage. Conjunctions chain filters, so each term only
	// visits the survivors of the previous one — rejected rows are never
	// revisited, let alone materialized.
	filter(rows [][]byte, sel []int32) []int32
	// evalRow reports whether one row matches (the scalar path used by OR/NOT
	// and by per-record consumers like the indexed join's residual filter).
	evalRow(row []byte) bool
}

// Compile compiles p for batch evaluation over rows of schema s. A nil
// predicate compiles to nil (callers treat that as select-all).
func Compile(s *table.Schema, p Pred) *BatchPred {
	if p == nil {
		return nil
	}
	return &BatchPred{node: compileNode(s, p)}
}

// Filter refines the selection vector in place: the returned slice (reusing
// sel's storage) holds exactly the indices whose rows match, in their original
// order.
func (bp *BatchPred) Filter(rows [][]byte, sel []int32) []int32 {
	return bp.node.filter(rows, sel)
}

// EvalRow evaluates the compiled predicate against a single raw row.
func (bp *BatchPred) EvalRow(row []byte) bool { return bp.node.evalRow(row) }

func compileNode(s *table.Schema, p Pred) bnode {
	switch q := p.(type) {
	case Cmp:
		return compileCmp(s, q)
	case Between:
		i := s.ColumnIndex(q.Col)
		if i < 0 || s.Columns[i].Type != table.Int32 {
			return constNode{false}
		}
		nb, nm := s.NullBit(i)
		return &betweenNode{off: s.ColumnOffset(i), nullB: nb, nullM: nm, lo: q.Lo, hi: q.Hi}
	case In:
		return compileIn(s, q)
	case Like:
		i := s.ColumnIndex(q.Col)
		if i < 0 || s.Columns[i].Type == table.Int32 {
			// Like.Eval is false on NULL and on integer values even under NOT
			// LIKE (three-valued logic collapsed, as the scalar path has it).
			return constNode{false}
		}
		nb, nm := s.NullBit(i)
		n := &likeNode{off: s.ColumnOffset(i), size: s.Columns[i].Size,
			nullB: nb, nullM: nm, pattern: q.Pattern, not: q.Not}
		if !strings.ContainsAny(q.Pattern, "_\x00") {
			segs := strings.Split(q.Pattern, "%")
			last := len(segs) - 1
			n.segmented, n.exact, n.prefix = true, last == 0, []byte(segs[0])
			if last > 0 {
				n.suffix = []byte(segs[last])
				for _, seg := range segs[1:last] {
					if seg != "" {
						n.mids = append(n.mids, []byte(seg))
					}
				}
			}
		}
		return n
	case IsNull:
		i := s.ColumnIndex(q.Col)
		if i < 0 {
			// An unknown column reads as NULL, so IS NULL is constant true and
			// IS NOT NULL constant false.
			return constNode{!q.Not}
		}
		nb, nm := s.NullBit(i)
		return &isNullNode{nullB: nb, nullM: nm, not: q.Not}
	case And:
		kids := make([]bnode, len(q.Preds))
		for i, sub := range q.Preds {
			kids[i] = compileNode(s, sub)
		}
		return &andNode{kids: kids}
	case Or:
		kids := make([]bnode, len(q.Preds))
		for i, sub := range q.Preds {
			kids[i] = compileNode(s, sub)
		}
		return &orNode{kids: kids}
	case Not:
		return &notNode{kid: compileNode(s, q.Pred)}
	default:
		// Unknown predicate implementations fall back to the scalar evaluator.
		return &predNode{s: s, p: p}
	}
}

func compileCmp(s *table.Schema, q Cmp) bnode {
	i := s.ColumnIndex(q.Col)
	if i < 0 || q.Val.Null {
		return constNode{false}
	}
	col := s.Columns[i]
	nb, nm := s.NullBit(i)
	if col.Type == table.Int32 {
		if !q.Val.IsI {
			return constNode{false} // type mismatch never matches
		}
		return &intCmpNode{off: s.ColumnOffset(i), nullB: nb, nullM: nm, op: q.Op, val: q.Val.Int}
	}
	if q.Val.IsI {
		return constNode{false}
	}
	return &strCmpNode{off: s.ColumnOffset(i), size: col.Size, nullB: nb, nullM: nm,
		op: q.Op, val: []byte(q.Val.Str)}
}

func compileIn(s *table.Schema, q In) bnode {
	i := s.ColumnIndex(q.Col)
	if i < 0 {
		return constNode{false}
	}
	col := s.Columns[i]
	nb, nm := s.NullBit(i)
	if col.Type == table.Int32 {
		var vals []int32
		for _, c := range q.Vals {
			if c.IsI && !c.Null {
				vals = append(vals, c.Int)
			}
		}
		if len(vals) == 0 {
			return constNode{false}
		}
		n := &inIntNode{off: s.ColumnOffset(i), nullB: nb, nullM: nm, vals: vals}
		if len(vals) > smallInList {
			n.set = make(map[int32]struct{}, len(vals))
			for _, v := range vals {
				n.set[v] = struct{}{}
			}
		}
		return n
	}
	var vals [][]byte
	for _, c := range q.Vals {
		if !c.IsI && !c.Null {
			vals = append(vals, []byte(c.Str))
		}
	}
	if len(vals) == 0 {
		return constNode{false}
	}
	return &inStrNode{off: s.ColumnOffset(i), size: col.Size, nullB: nb, nullM: nm, vals: vals}
}

// smallInList is the membership-list length up to which a linear scan beats a
// map probe.
const smallInList = 8

// filterScalar implements filter for nodes whose batch form is just the
// per-row evaluation (OR, NOT, fallbacks).
func filterScalar(n bnode, rows [][]byte, sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if n.evalRow(rows[i]) {
			out = append(out, i)
		}
	}
	return out
}

// charEq reports whether the CHAR payload raw, NUL-trimmed, equals val,
// without trimming: val against the stored prefix first, and only then that
// the rest is padding — and that val does not itself end in NUL, which no
// trimmed payload does.
func charEq(raw, val []byte) bool {
	return bytes.HasPrefix(raw, val) && len(table.TrimNul(raw[len(val):])) == 0 &&
		(len(val) == 0 || val[len(val)-1] != 0)
}

// cmpMatches applies a comparison operator to a three-way compare result.
func cmpMatches(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// constNode is a predicate folded to a constant at compile time (unknown
// columns, NULL or type-mismatched constants).
type constNode struct{ v bool }

func (n constNode) filter(rows [][]byte, sel []int32) []int32 {
	if n.v {
		return sel
	}
	return sel[:0]
}

func (n constNode) evalRow([]byte) bool { return n.v }

type intCmpNode struct {
	off   int
	nullB int
	nullM byte
	op    CmpOp
	val   int32
}

func (n *intCmpNode) evalRow(row []byte) bool {
	if row[n.nullB]&n.nullM != 0 {
		return false
	}
	v := int32(binary.LittleEndian.Uint32(row[n.off:]))
	c := 0
	switch {
	case v < n.val:
		c = -1
	case v > n.val:
		c = 1
	}
	return cmpMatches(n.op, c)
}

func (n *intCmpNode) filter(rows [][]byte, sel []int32) []int32 {
	out := sel[:0]
	if n.op == Eq {
		// The dominant shape gets a branch-lean loop with the operator
		// dispatch hoisted out.
		for _, i := range sel {
			row := rows[i]
			if row[n.nullB]&n.nullM == 0 && int32(binary.LittleEndian.Uint32(row[n.off:])) == n.val {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if n.evalRow(rows[i]) {
			out = append(out, i)
		}
	}
	return out
}

type strCmpNode struct {
	off   int
	size  int
	nullB int
	nullM byte
	op    CmpOp
	val   []byte
}

func (n *strCmpNode) evalRow(row []byte) bool {
	if row[n.nullB]&n.nullM != 0 {
		return false
	}
	raw := row[n.off : n.off+n.size]
	switch n.op {
	case Eq:
		return charEq(raw, n.val)
	case Ne:
		return !charEq(raw, n.val)
	}
	return cmpMatches(n.op, bytes.Compare(table.TrimNul(raw), n.val))
}

func (n *strCmpNode) filter(rows [][]byte, sel []int32) []int32 {
	out := sel[:0]
	switch n.op {
	case Eq:
		for _, i := range sel {
			row := rows[i]
			if row[n.nullB]&n.nullM == 0 && charEq(row[n.off:n.off+n.size], n.val) {
				out = append(out, i)
			}
		}
	case Ne:
		for _, i := range sel {
			row := rows[i]
			if row[n.nullB]&n.nullM == 0 && !charEq(row[n.off:n.off+n.size], n.val) {
				out = append(out, i)
			}
		}
	default:
		return filterScalar(n, rows, sel)
	}
	return out
}

type betweenNode struct {
	off    int
	nullB  int
	nullM  byte
	lo, hi int32
}

func (n *betweenNode) evalRow(row []byte) bool {
	if row[n.nullB]&n.nullM != 0 {
		return false
	}
	v := int32(binary.LittleEndian.Uint32(row[n.off:]))
	return v >= n.lo && v <= n.hi
}

func (n *betweenNode) filter(rows [][]byte, sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		row := rows[i]
		if row[n.nullB]&n.nullM != 0 {
			continue
		}
		v := int32(binary.LittleEndian.Uint32(row[n.off:]))
		if v >= n.lo && v <= n.hi {
			out = append(out, i)
		}
	}
	return out
}

type inIntNode struct {
	off   int
	nullB int
	nullM byte
	vals  []int32            // linear scan for short lists
	set   map[int32]struct{} // non-nil above smallInList
}

func (n *inIntNode) evalRow(row []byte) bool {
	if row[n.nullB]&n.nullM != 0 {
		return false
	}
	v := int32(binary.LittleEndian.Uint32(row[n.off:]))
	if n.set != nil {
		_, ok := n.set[v]
		return ok
	}
	for _, c := range n.vals {
		if v == c {
			return true
		}
	}
	return false
}

func (n *inIntNode) filter(rows [][]byte, sel []int32) []int32 {
	return filterScalar(n, rows, sel)
}

type inStrNode struct {
	off   int
	size  int
	nullB int
	nullM byte
	vals  [][]byte
}

func (n *inStrNode) evalRow(row []byte) bool {
	if row[n.nullB]&n.nullM != 0 {
		return false
	}
	// One word-wise trim, then a length check rejects most of the list before
	// any bytes are compared: cheaper than charEq per constant.
	raw := table.TrimNul(row[n.off : n.off+n.size])
	for _, c := range n.vals {
		if bytes.Equal(raw, c) {
			return true
		}
	}
	return false
}

func (n *inStrNode) filter(rows [][]byte, sel []int32) []int32 {
	return filterScalar(n, rows, sel)
}

type likeNode struct {
	off     int
	size    int
	nullB   int
	nullM   byte
	pattern string
	not     bool

	// A pattern without '_' or NUL is split at '%' once, at compile time:
	// prefix%mids[0]%…%suffix, or exactly prefix when it holds no '%'. No
	// segment holds a NUL, so none can match into the padding and prefix and
	// mids search the untrimmed column bytes; only a suffix needs the end.
	segmented, exact bool
	prefix, suffix   []byte
	mids             [][]byte
}

// match reports whether the CHAR payload raw matches the pattern.
func (n *likeNode) match(raw []byte) bool {
	if !n.segmented {
		return likeMatch(n.pattern, table.TrimNul(raw))
	}
	if !bytes.HasPrefix(raw, n.prefix) {
		return false
	}
	rest := raw[len(n.prefix):]
	if n.exact {
		return len(table.TrimNul(rest)) == 0
	}
	for _, m := range n.mids {
		i := bytes.Index(rest, m)
		if i < 0 {
			return false
		}
		rest = rest[i+len(m):]
	}
	return len(n.suffix) == 0 || bytes.HasSuffix(table.TrimNul(rest), n.suffix)
}

func (n *likeNode) evalRow(row []byte) bool {
	return row[n.nullB]&n.nullM == 0 && n.match(row[n.off:n.off+n.size]) != n.not
}

func (n *likeNode) filter(rows [][]byte, sel []int32) []int32 {
	return filterScalar(n, rows, sel)
}

type isNullNode struct {
	nullB int
	nullM byte
	not   bool
}

func (n *isNullNode) evalRow(row []byte) bool {
	null := row[n.nullB]&n.nullM != 0
	return null != n.not
}

func (n *isNullNode) filter(rows [][]byte, sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if (rows[i][n.nullB]&n.nullM != 0) != n.not {
			out = append(out, i)
		}
	}
	return out
}

type andNode struct{ kids []bnode }

func (n *andNode) filter(rows [][]byte, sel []int32) []int32 {
	// Sequential selection-vector refinement: each term filters only the
	// survivors of the previous one.
	for _, k := range n.kids {
		sel = k.filter(rows, sel)
		if len(sel) == 0 {
			break
		}
	}
	return sel
}

func (n *andNode) evalRow(row []byte) bool {
	for _, k := range n.kids {
		if !k.evalRow(row) {
			return false
		}
	}
	return true
}

type orNode struct{ kids []bnode }

func (n *orNode) filter(rows [][]byte, sel []int32) []int32 {
	return filterScalar(n, rows, sel)
}

func (n *orNode) evalRow(row []byte) bool {
	for _, k := range n.kids {
		if k.evalRow(row) {
			return true
		}
	}
	return false
}

type notNode struct{ kid bnode }

func (n *notNode) filter(rows [][]byte, sel []int32) []int32 {
	return filterScalar(n, rows, sel)
}

func (n *notNode) evalRow(row []byte) bool { return !n.kid.evalRow(row) }

// predNode is the scalar fallback for predicate implementations the compiler
// does not know.
type predNode struct {
	s *table.Schema
	p Pred
}

func (n *predNode) filter(rows [][]byte, sel []int32) []int32 {
	return filterScalar(n, rows, sel)
}

func (n *predNode) evalRow(row []byte) bool {
	return n.p.Eval(table.Record{Schema: n.s, Data: row})
}
