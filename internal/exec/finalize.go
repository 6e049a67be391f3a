package exec

import (
	"bytes"
	"fmt"
	"unsafe"

	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// boundRef is a column reference resolved against a shape: tuple position
// plus column index, so the per-tuple path never resolves names.
type boundRef struct{ pos, idx int }

// bindRef resolves an aliased column once. Unknown aliases or columns bind to
// -1 and read as NULL.
func bindRef(sh *Shape, alias, col string) boundRef {
	p := sh.Pos(alias)
	if p < 0 {
		return boundRef{pos: -1, idx: -1}
	}
	return boundRef{pos: p, idx: sh.Schemas[p].ColumnIndex(col)}
}

// colVal reads a bound column from the tuple (NULL for unbound refs and
// absent positions).
func colVal(sh *Shape, tu Tuple, r boundRef) table.Value {
	if r.pos < 0 || tu[r.pos] == nil {
		return table.NullVal()
	}
	return table.Record{Schema: sh.Schemas[r.pos], Data: tu[r.pos]}.Get(r.idx)
}

// aggRef is an aggregate's argument bound against a shape. A CHAR argument
// is read as its stored, NUL-trimmed payload: MIN and MAX compare those
// bytes — the order of the decoded strings — and decode only the winner.
type aggRef struct {
	boundRef
	char      bool
	off, size int
}

// bindAgg resolves an aggregate's argument; an unknown one binds to position
// -1 and reads as NULL.
func bindAgg(sh *Shape, a query.Aggregate) aggRef {
	r := bindRef(sh, a.Arg.Alias, a.Arg.Col)
	if r.pos < 0 || r.idx < 0 {
		return aggRef{boundRef: boundRef{pos: -1, idx: -1}}
	}
	s := sh.Schemas[r.pos]
	c := s.Columns[r.idx]
	return aggRef{boundRef: r, char: c.Type != table.Int32, off: s.ColumnOffset(r.idx), size: c.Size}
}

// Finalize applies grouping/aggregation or projection to the joined tuples.
func (e *Engine) Finalize(pl *Pipeline, tuples []Tuple) (*Result, error) {
	f, err := e.finalizer(pl)
	if err != nil {
		return nil, err
	}
	f.add(tuples)
	return f.result(), nil
}

// finalizer applies a plan's top — grouping and aggregation, or projection —
// to the joined tuples as they arrive, in any number of pieces, and books its
// work once, when it builds the result: the charges depend on the total
// tuple count only, so a streamed chain's pieces cost what one materialized
// input does. Groups live in the open-addressing key table — the entry
// ordinal is the group's first-occurrence rank, which is the output order —
// with flat accumulator arrays indexed by ordinal×len(aggs) instead of a
// per-group state struct. Each scratch has one, so a warm scratch reuses its
// bindings and accumulators.
type finalizer struct {
	e        *Engine
	sc       *Scratch
	sh       *Shape
	res      *Result
	rowWidth int64
	tuples   int
	// sink is add as a stream's sink, built once per scratch.
	sink func([]Tuple) error

	// Grouping and aggregation (group set).
	group   bool
	groupBy []query.ColRef
	aggs    []query.Aggregate
	gbRefs  []boundRef
	aggRefs []aggRef
	tab     *keyTab
	keys    [][]table.Value // decoded key of each group's first tuple
	minI    []int32         // flat accumulators: [ordinal*na + agg]
	minB    [][]byte        // a CHAR MIN/MAX's winning payload, a view of its row
	sums    []float64
	counts  []int64
	seen    []bool

	// Projection: one bound reference per output column (none for SELECT *).
	refs []boundRef
}

// reset empties the finalizer, keeping its capacity and its sink, and drops
// every reference to the run it served.
func (f *finalizer) reset() {
	clear(f.keys)
	clear(f.minB)
	*f = finalizer{sink: f.sink, gbRefs: f.gbRefs[:0], aggRefs: f.aggRefs[:0], keys: f.keys[:0],
		minI: f.minI[:0], minB: f.minB[:0], sums: f.sums[:0], counts: f.counts[:0], seen: f.seen[:0], refs: f.refs[:0]}
}

// retained reports the bytes of capacity the finalizer holds.
func (f *finalizer) retained() int64 {
	return int64(cap(f.gbRefs)+cap(f.refs))*int64(unsafe.Sizeof(boundRef{})) +
		int64(cap(f.aggRefs))*int64(unsafe.Sizeof(aggRef{})) + int64(cap(f.keys)+cap(f.minB))*24 +
		int64(cap(f.minI))*4 + int64(cap(f.sums)+cap(f.counts))*8 + int64(cap(f.seen))
}

// finalizer starts the top of the pipeline's plan on the scratch's finalizer.
func (e *Engine) finalizer(pl *Pipeline) (*finalizer, error) {
	p := pl.Plan
	sh := pl.FinalShape()
	f := &pl.sc.fin
	f.reset()
	f.e, f.sc, f.sh, f.res = e, pl.sc, sh, &Result{}
	if f.sink == nil {
		f.sink = func(tuples []Tuple) error { f.add(tuples); return nil }
	}
	if len(p.Aggregates) > 0 || len(p.GroupBy) > 0 {
		f.group, f.groupBy, f.aggs = true, p.GroupBy, p.Aggregates
		for _, g := range p.GroupBy {
			f.gbRefs = append(f.gbRefs, bindRef(sh, g.Alias, g.Col))
			f.res.Columns = append(f.res.Columns, g.String())
		}
		for _, a := range p.Aggregates {
			var r aggRef
			if !a.Star {
				r = bindAgg(sh, a)
			}
			f.aggRefs = append(f.aggRefs, r)
			name := a.As
			if name == "" {
				name = a.String()
			}
			f.res.Columns = append(f.res.Columns, name)
		}
		f.rowWidth = int64(len(f.res.Columns) * 8)
		f.tab = f.sc.keyTab()
		f.tab.reset(0)
		return f, nil
	}
	for _, c := range p.Output {
		i := sh.Pos(c.Alias)
		if i < 0 {
			return nil, fmt.Errorf("exec: projection references alias %q outside the plan", c.Alias)
		}
		f.res.Columns = append(f.res.Columns, c.String())
		f.rowWidth += int64(sh.Schemas[i].ColumnStoredBytes(c.Col))
		f.refs = append(f.refs, bindRef(sh, c.Alias, c.Col))
	}
	if len(p.Output) == 0 {
		// SELECT *: all columns of all tables.
		for i, a := range sh.Aliases {
			for _, c := range sh.Schemas[i].Columns {
				f.res.Columns = append(f.res.Columns, a+"."+c.Name)
			}
			f.rowWidth += int64(sh.Schemas[i].RowBytes())
		}
	}
	return f, nil
}

// add takes the next piece of joined tuples. Nothing it reads from them
// outlives the run's scratch: CHAR winners are views of stored rows, decoded
// by result.
func (f *finalizer) add(tuples []Tuple) {
	f.tuples += len(tuples)
	if f.group {
		f.groupAdd(tuples)
		return
	}
	sh := f.sh
	for _, tu := range tuples {
		if len(f.res.Rows) >= RetainRows {
			break
		}
		var row []table.Value
		if len(f.refs) == 0 {
			for i := range sh.Aliases {
				rec := tu.Record(sh, i)
				for ci := range sh.Schemas[i].Columns {
					row = append(row, rec.Get(ci))
				}
			}
		} else {
			for _, r := range f.refs {
				row = append(row, colVal(sh, tu, r))
			}
		}
		f.res.Rows = append(f.res.Rows, row)
	}
	f.res.RowCount += int64(len(tuples))
}

// groupAdd folds tuples into their groups batch-at-a-time: phase 1 encodes
// one batch of group keys into a shared arena, phase 2 walks the spans doing
// the hash-table upsert and accumulator updates in the same tuple order.
// put() copies the key into the table's own arena, so reusing ours across
// batches is safe, and ordinal assignment — the output order — matches
// one-at-a-time.
func (f *finalizer) groupAdd(tuples []Tuple) {
	sh, sc, na := f.sh, f.sc, len(f.aggs)
	bs := batchRows
	gkArena, gkEnds := sc.keyBuf[:0], sc.probeEnd[:0]
	for b := 0; b < len(tuples); b += bs {
		chunk := tuples[b:min(b+bs, len(tuples))]
		gkArena = gkArena[:0]
		gkEnds = gkEnds[:0]
		for _, tu := range chunk {
			for _, r := range f.gbRefs {
				if r.pos >= 0 && tu[r.pos] != nil {
					var ok bool
					gkArena, ok = table.Record{Schema: sh.Schemas[r.pos], Data: tu[r.pos]}.AppendColKey(gkArena, r.idx)
					if ok {
						continue
					}
				}
				// NULL group keys encode like the empty string (and collide
				// with it), as the decoded-value codec always has.
				gkArena = append(gkArena, 's', 0)
			}
			gkEnds = append(gkEnds, int32(len(gkArena)))
		}
		gkStart := int32(0)
		for j, tu := range chunk {
			gk := gkArena[gkStart:gkEnds[j]]
			gkStart = gkEnds[j]
			ord, fresh := f.tab.put(fnv1a(gk), gk)
			if fresh {
				kv := make([]table.Value, len(f.gbRefs))
				for gi, r := range f.gbRefs {
					kv[gi] = colVal(sh, tu, r)
				}
				f.keys = append(f.keys, kv)
				for range na {
					f.minI = append(f.minI, 0)
					f.minB = append(f.minB, nil)
					f.sums = append(f.sums, 0)
					f.counts = append(f.counts, 0)
					f.seen = append(f.seen, false)
				}
			}
			base := int(ord) * na
			for i := range f.aggs {
				f.accumulate(base+i, &f.aggs[i], &f.aggRefs[i], tu)
			}
		}
	}
	sc.keyBuf, sc.probeEnd = gkArena[:0], gkEnds[:0]
}

// accumulate folds one tuple's argument into accumulator k of aggregate a.
func (f *finalizer) accumulate(k int, a *query.Aggregate, r *aggRef, tu Tuple) {
	if a.Star {
		f.counts[k]++
		return
	}
	if r.pos < 0 || tu[r.pos] == nil {
		return
	}
	rec := table.Record{Schema: f.sh.Schemas[r.pos], Data: tu[r.pos]}
	if rec.IsNull(r.idx) {
		return
	}
	f.counts[k]++
	if r.char {
		// A CHAR argument only matters to MIN and MAX (SUM and AVG add
		// integers), compared as the bytes it decodes to.
		if a.Func == query.Min || a.Func == query.Max {
			b := table.TrimNul(rec.Data[r.off : r.off+r.size])
			if c := bytes.Compare(b, f.minB[k]); !f.seen[k] || a.Func == query.Min && c < 0 || a.Func == query.Max && c > 0 {
				f.minB[k] = b
			}
		}
		f.seen[k] = true
		return
	}
	v := rec.Get(r.idx).Int
	switch a.Func {
	case query.Min:
		if !f.seen[k] || v < f.minI[k] {
			f.minI[k] = v
		}
	case query.Max:
		if !f.seen[k] || v > f.minI[k] {
			f.minI[k] = v
		}
	case query.Sum, query.Avg:
		f.sums[k] += float64(v)
	case query.Count:
		// counted above
	}
	f.seen[k] = true
}

// result books the finalizer's work and builds the result.
func (f *finalizer) result() *Result {
	e, res := f.e, f.res
	if !f.group {
		res.Bytes = res.RowCount * f.rowWidth
		if e.TL != nil {
			e.R.Memcpy(e.TL, res.Bytes)
		}
		return res
	}
	if e.TL != nil {
		e.R.Group(e.TL, f.tuples)
	}
	na := len(f.aggs)
	for ord := range f.keys {
		base := ord * na
		var row []table.Value
		row = append(row, f.keys[ord]...)
		for i, a := range f.aggs {
			k := base + i
			switch {
			case a.Func == query.Count:
				row = append(row, table.IntVal(int32(f.counts[k])))
			case !f.seen[k]:
				row = append(row, table.NullVal())
			case a.Func == query.Sum:
				row = append(row, table.IntVal(int32(f.sums[k])))
			case a.Func == query.Avg:
				row = append(row, table.IntVal(int32(f.sums[k]/float64(max(f.counts[k], 1)))))
			case a.Func == query.Min || a.Func == query.Max:
				// An empty winner reads as the integer accumulator, as the
				// decoded-string accumulator it replaced always did.
				if len(f.minB[k]) > 0 {
					row = append(row, table.StrVal(string(f.minB[k])))
				} else {
					row = append(row, table.IntVal(f.minI[k]))
				}
			}
		}
		if len(res.Rows) < RetainRows {
			res.Rows = append(res.Rows, row)
		}
		res.RowCount++
		res.Bytes += f.rowWidth
	}
	// An aggregate query over zero tuples still returns one all-NULL row
	// (no GROUP BY case), as SQL does.
	if len(f.groupBy) == 0 && res.RowCount == 0 {
		var row []table.Value
		for _, a := range f.aggs {
			if a.Func == query.Count {
				row = append(row, table.IntVal(0))
			} else {
				row = append(row, table.NullVal())
			}
		}
		res.Rows = append(res.Rows, row)
		res.RowCount = 1
		res.Bytes = f.rowWidth
	}
	return res
}
