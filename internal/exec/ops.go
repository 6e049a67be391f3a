package exec

import (
	"fmt"
	"math"
	"sort"

	"hybridndp/internal/hw"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// ScanAccess reads the base table at tuple position pos of the pipeline's
// plan (0 = the driving table, si+1 = join step si's inner) through its access
// path: rows surviving the local predicate, restricted to the optional
// primary-key range [loPK, hiPK) used by the device engine's chunked pipeline
// and the fleet's partitions. The scan charges flash reads and merge
// comparisons through the LSM layer, predicate evaluation per scanned record,
// and a selection-cache copy per match. The result is a region of this
// engine's scratch, whichever engine started the pipeline.
//
// Execution is vectorized: row views accumulate into a fixed-size column
// batch, the prepared compiled predicate refines the batch's selection vector
// term by term, and only selected views reach the result — rejected rows are
// never materialized. Charges derive from the accumulated scanned/selected
// counts, so virtual time is byte-identical at every batch size (size 1
// degenerates to the tuple-at-a-time order of operations).
func (e *Engine) ScanAccess(pl *Pipeline, pos int, loPK, hiPK *int32) ([][]byte, int64, error) {
	ap, t := pl.Plan.access(pos), pl.tabs[pos]
	ac := e.Access()
	terms, width, bp := pl.terms[pos], pl.widths[pos], pl.preds[pos]
	bs := batchRows
	sc := e.scratch()
	batch := sc.scanBatch(bs)
	start := len(sc.views)
	scanned := 0
	flush := func() {
		if len(batch.Rows) == 0 {
			return
		}
		batch.SelectAll()
		if bp != nil {
			batch.Sel = bp.Filter(batch.Rows, batch.Sel)
		}
		sc.views = batch.Selected(sc.views)
		batch.Rows = batch.Rows[:0]
	}

	view := e.viewOf(ap.Ref.Table)
	if ap.UseFilterIndex {
		pks, err := sc.seeker.IndexSeek(t, ap.FilterIndex, ap.FilterValue, ac)
		if err != nil {
			return nil, 0, err
		}
		for _, pk := range pks {
			if loPK != nil && pk < *loPK {
				continue
			}
			if hiPK != nil && pk >= *hiPK {
				continue
			}
			rec, ok, err := t.GetByPKView(view, pk, ac)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				continue
			}
			scanned++
			batch.Rows = append(batch.Rows, rec.Data)
			if len(batch.Rows) >= bs {
				flush()
			}
		}
	} else {
		var lo, hi []byte
		if loPK != nil {
			sc.lo = table.AppendPK(sc.lo[:0], *loPK)
			lo = sc.lo
		}
		if hiPK != nil {
			sc.hi = table.AppendPK(sc.hi[:0], *hiPK)
			hi = sc.hi
		}
		// The batch fills a decoded data block at a time (DESIGN.md §10 "The
		// storage boundary"); a scan whose merge still has several live sources
		// gets empty runs and degenerates to the entry-wise loop.
		it := &sc.iter
		t.ScanViewInto(it, view, lo, hi, ac)
		for ; it.Valid(); it.Next() {
			batch.Rows = append(batch.Rows, it.Entry().Value)
			run := it.Run()
			for i := range run {
				if len(batch.Rows) >= bs {
					flush()
				}
				batch.Rows = append(batch.Rows, run[i].Value)
			}
			if len(batch.Rows) >= bs {
				flush()
			}
			scanned += 1 + len(run)
			it.Consume(len(run))
		}
		if err := it.Err(); err != nil {
			return nil, 0, err
		}
	}
	flush()
	// The result is the region of the view slab this scan appended; its
	// capacity is clipped so a caller's append cannot run into the next one.
	rows := sc.views[start:len(sc.views):len(sc.views)]

	if e.TL != nil {
		e.R.Eval(e.TL, scanned, terms)
		copyBytes := int64(len(rows)) * e.cacheWidth(width)
		e.R.Memcpy(e.TL, copyBytes)
		e.R.RowOverhead(e.TL, len(rows), hw.CatSelection)
	}
	return rows, width, nil
}

// cacheWidth is the per-record footprint in an intermediate cache: the
// projected row (row-cache format) or an 8-byte pointer (pointer-cache
// format, paper §4.2).
func (e *Engine) cacheWidth(rowWidth int64) int64 {
	if e.PointerCache {
		return 8
	}
	return rowWidth
}

// innerState caches the materialized inner side of a BNL join so
// chunked executions build it only once (the device builds its hash tables
// once and streams probes through them). For BNL with a bounded join buffer
// it also tracks how much outer data has streamed past, charging one extra
// inner pass every time the cumulative outer volume crosses a buffer-sized
// block boundary — the block-nested-loop rescan behaviour.
type innerState struct {
	rows   [][]byte
	tab    *keyTab
	built  bool
	seeded bool
	width  int64

	scanDelta     map[string]vclock.Duration // cost of one inner scan pass
	cumOuterBytes int64
	chargedBlocks int64
}

// appendTupleKey appends the composite join key of the left tuple to buf
// using plan-time-bound column indices; ok is false when any component is
// NULL (SQL equality never matches NULL). Partial appends from earlier
// conditions are the caller's to discard (it resets buf per tuple).
func appendTupleKey(buf []byte, sh *Shape, tu Tuple, conds []BoundCond) ([]byte, bool) {
	for _, c := range conds {
		var ok bool
		buf, ok = tu.Record(sh, c.LeftPos).AppendColKey(buf, c.LeftColIdx)
		if !ok {
			return buf, false
		}
	}
	return buf, true
}

// appendRowKey appends the composite key of a right-side record to buf.
func appendRowKey(buf []byte, rec table.Record, conds []BoundCond) ([]byte, bool) {
	for _, c := range conds {
		var ok bool
		buf, ok = rec.AppendColKey(buf, c.RightColIdx)
		if !ok {
			return buf, false
		}
	}
	return buf, true
}

// JoinStep executes join step si of the pipeline over the given left tuples
// and returns the extended tuples, materialized in the run's main store.
// Inner-side state persists in the pipeline across chunked invocations.
func (e *Engine) JoinStep(pl *Pipeline, si int, left []Tuple) ([]Tuple, error) {
	out, _, err := e.joinPiece(pl, si, left, &pl.sc.main, math.MaxInt)
	return out, err
}

// joinPiece executes join step si over left tuples, appending the extended
// tuples to dst, until the output holds budget tuples: it stops at the
// left-tuple boundary where it got there and returns the output and how many
// left tuples it consumed — all of them when the output stayed below budget
// until the last, and at least one when there was one. Charges cover the
// consumed tuples.
func (e *Engine) joinPiece(pl *Pipeline, si int, left []Tuple, dst *tupleStore, budget int) ([]Tuple, int, error) {
	step := &pl.Plan.Steps[si]
	switch step.Type {
	case BNL:
		return e.joinBuffered(pl, si, left, dst, budget)
	case BNLI:
		return e.joinIndexed(pl, si, left, dst, budget)
	default:
		return nil, 0, fmt.Errorf("exec: unknown join type %v", step.Type)
	}
}

// probeHit is one probed left tuple's resolved hash-table entry (-1 = NULL
// key or no match) and the encoded length its comparisons are booked at.
type probeHit struct{ ent, klen int32 }

// joinBuffered implements BNL: a hash table over the inner side in the join
// buffer, re-reading the inner table once per outer block that exceeds the
// buffer.
func (e *Engine) joinBuffered(pl *Pipeline, si int, left []Tuple, dst *tupleStore, budget int) ([]Tuple, int, error) {
	inner, err := e.BuildInner(pl, si)
	if err != nil {
		return nil, 0, err
	}

	// Batch-at-a-time probing: for each batch of left tuples, phase 1 forms
	// every join key and resolves its hash-table entry; phase 2 walks the batch
	// again chasing match chains in the same tuple order, so output ordering
	// and the integer comparison counters — and with them every charge — are
	// identical to tuple-at-a-time execution. A match is booked at chain length
	// × encoded key length whichever representation found it. Probing charges
	// nothing; the counters of the consumed tuples are booked below.
	sc := pl.sc
	outStart := len(dst.list)
	var cmpBytes int64
	cmps := 0
	leftShape := pl.ShapeAt(si)
	conds, ik, tab := pl.conds[si], &pl.intKeys[si], inner.tab
	intLen := int32(ik.n * intKeyEncodedLen)
	bs := batchRows
	key := sc.keyBuf[:0]
	hits := sc.probeHits[:0]
	used := len(left)
probe:
	for base := 0; base < len(left); base += bs {
		chunk := left[base:min(base+bs, len(left))]
		hits = hits[:0]
		for _, tu := range chunk {
			h := probeHit{ent: -1, klen: intLen}
			if ik.n > 0 {
				if k, ok := ik.tupleKey(tu); ok {
					h.ent = tab.findInt(k)
				}
			} else {
				var ok bool
				if key, ok = appendTupleKey(key[:0], leftShape, tu, conds); ok {
					h.ent, h.klen = tab.find(fnv1a(key), key), int32(len(key))
				}
			}
			hits = append(hits, h)
		}
		for j, tu := range chunk {
			if h := hits[j]; h.ent >= 0 {
				n := int(tab.entries[h.ent].n)
				cmps += n
				cmpBytes += int64(h.klen) * int64(n)
				for r := tab.entries[h.ent].head; r >= 0; r = tab.next[r] {
					dst.extend(tu, inner.rows[r])
				}
			}
			if len(dst.list)-outStart >= budget {
				used = base + j + 1
				break probe
			}
		}
	}
	sc.keyBuf, sc.probeHits = key[:0], hits[:0]
	out := dst.list[outStart:len(dst.list):len(dst.list)]

	// BNL rescan accounting: once the cumulative outer volume exceeds the
	// join buffer, each further buffer-sized outer block re-reads the inner
	// table (Exp 5: the device BNL bottleneck).
	if e.JoinBuf > 0 && !inner.seeded {
		innerBytes := int64(len(inner.rows)) * e.cacheWidth(inner.width)
		if innerBytes > e.JoinBuf {
			inner.cumOuterBytes += int64(used) * pl.TupleWidth(si+1)
			blocks := inner.cumOuterBytes / e.JoinBuf
			if blocks > inner.chargedBlocks && e.TL != nil {
				chargeRepeatDelta(e.TL, inner.scanDelta, int(blocks-inner.chargedBlocks))
				inner.chargedBlocks = blocks
			}
		}
	}
	if e.TL != nil {
		e.R.HashProbe(e.TL, used)
		e.R.Memcmp(e.TL, cmpBytes, cmps)
		e.R.Memcpy(e.TL, int64(len(out))*e.cacheWidth(pl.widths[si+1]))
		e.R.RowOverhead(e.TL, len(out), hw.CatBufferManage)
		e.chargeDeref(pl, si, len(out))
	}
	return out, used, nil
}

// chargeDeref books the pointer-cache dereferencing of the produced tuples
// (paper §4.2) when the engine stores intermediates in pointer format.
func (e *Engine) chargeDeref(pl *Pipeline, si, out int) {
	if !e.PointerCache || out == 0 {
		return
	}
	positions := si + 2
	e.R.Deref(e.TL, out, positions, int64(out)*pl.TupleWidth(positions))
}

// BuildInner materializes and hashes the inner side of join step si if not
// yet built. The cooperative executor calls this to pre-build the host-side
// hash tables while the device runs its initial execution, overlapping the
// two engines (paper §4.1).
func (e *Engine) BuildInner(pl *Pipeline, si int) (*innerState, error) {
	inner := &pl.inner[si]
	if inner.built {
		return inner, nil
	}
	step := pl.Plan.Steps[si]
	// Only joinBuffered's BNL rescan accounting reads the cost of this scan
	// pass, and only on an engine with a bounded join buffer — the engine that
	// builds an inner is the one that probes it. Everyone else skips the two
	// account snapshots.
	rescans := step.Type == BNL && e.JoinBuf > 0 && e.TL != nil
	var before map[string]vclock.Duration
	if rescans {
		before = e.TL.Account()
	}
	rows, width, err := e.ScanAccess(pl, si+1, nil, nil)
	if err != nil {
		return nil, err
	}
	if rescans {
		inner.scanDelta = accountDelta(before, e.TL.Account())
	}
	e.hashInner(pl, si, inner, rows, width)
	return inner, nil
}

// AppendInner installs device-shipped, already-filtered rows into the inner
// side of join step si, so the host joins NDP outputs instead of rescanning
// the base table (H0 leaf offloading). The first call on an unbuilt inner
// seeds it; later calls extend it (a fleet delivers each inner table's
// partitions as separate leaf batches), the grown row list a region of the
// pipeline's scratch.
func (e *Engine) AppendInner(pl *Pipeline, si int, rows [][]byte) {
	inner := &pl.inner[si]
	if !inner.built {
		e.hashInner(pl, si, inner, rows, pl.widths[si+1])
		inner.seeded = true
		return
	}
	base := len(inner.rows)
	inner.rows = appendRegion(&pl.sc.views, inner.rows, rows)
	inner.tab.addRows(len(rows))
	e.linkRows(pl, si, inner, rows, base)
}

// hashInner builds the in-buffer hash table over the inner rows. The rows are
// kept with their capacity clipped, so a later AppendInner moves them into the
// scratch instead of writing past the end of the caller's slice.
func (e *Engine) hashInner(pl *Pipeline, si int, inner *innerState, rows [][]byte, width int64) {
	inner.rows = rows[:len(rows):len(rows)]
	inner.width = width
	inner.tab = pl.sc.keyTab(len(rows))
	e.linkRows(pl, si, inner, rows, 0)
	inner.built = true
}

// linkRows enters rows, numbered from base, into the inner side's hash table
// in the step's key representation — the one the probe reads — and books the
// build. Rows with a NULL key component are skipped but charged like the rest.
func (e *Engine) linkRows(pl *Pipeline, si int, inner *innerState, rows [][]byte, base int) {
	if ik := &pl.intKeys[si]; ik.n > 0 {
		for i, r := range rows {
			if k, ok := ik.rowKey(r); ok {
				inner.tab.addRowInt(k, base+i)
			}
		}
	} else {
		rs := pl.tabs[si+1].Schema
		key := pl.sc.keyBuf[:0]
		for i, r := range rows {
			var ok bool
			if key, ok = appendRowKey(key[:0], table.Record{Schema: rs, Data: r}, pl.conds[si]); ok {
				inner.tab.addRow(fnv1a(key), key, base+i)
			}
		}
		pl.sc.keyBuf = key[:0]
	}
	if e.TL != nil {
		e.R.HashBuild(e.TL, len(rows))
		e.R.Memcpy(e.TL, int64(len(rows))*e.cacheWidth(inner.width))
	}
}

// accountDelta computes per-category cost differences between snapshots.
func accountDelta(before, after map[string]vclock.Duration) map[string]vclock.Duration {
	out := make(map[string]vclock.Duration)
	for cat, d := range after {
		if delta := d - before[cat]; delta > 0 {
			out[cat] = delta
		}
	}
	return out
}

// chargeRepeatDelta books the delta map times extra times. Categories charge
// in sorted order so the timeline's float accumulation sequence — and with it
// every downstream golden — is independent of map iteration order.
func chargeRepeatDelta(tl *vclock.Timeline, delta map[string]vclock.Duration, times int) {
	if times <= 0 || delta == nil {
		return
	}
	cats := make([]string, 0, len(delta))
	for cat := range delta {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		tl.Charge(cat, delta[cat]*vclock.Duration(times))
	}
}

// joinIndexed implements BNLI: for every left tuple the right side is probed
// through an index — directly through the primary LSM tree when the join
// column is the PK, or through the secondary index with the two-stage
// secondary→primary seek of paper Fig. 9.
func (e *Engine) joinIndexed(pl *Pipeline, si int, left []Tuple, dst *tupleStore, budget int) ([]Tuple, int, error) {
	step := &pl.Plan.Steps[si]
	if len(step.Conds) == 0 {
		return nil, 0, fmt.Errorf("exec: BNLI join without conditions")
	}
	leftShape := pl.ShapeAt(si)
	rt := pl.tabs[si+1]
	ac := e.Access()
	conds := pl.conds[si]
	primary := conds[0]
	residual := conds[1:]
	// The right-side filter runs per fetched record; the prepared compiled form
	// reads the fixed-width layout directly instead of decoding Values per term.
	terms, rightBP := pl.terms[si+1], pl.preds[si+1]

	outStart := len(dst.list)
	fetched := 0
	view := e.viewOf(step.Right.Ref.Table)
	// Each probe walks one seek's list to its end before the next seek reuses
	// the seeker; probe itself never seeks.
	seeker := &e.scratch().seeker
	// probe fetches one right-side record and, when it passes the filter and
	// the residual conditions, extends tu with it. Nothing here charges — the
	// fetch does, the rest is booked from the counters below — so probing
	// between the fetches of one index seek leaves every charge where it was.
	probe := func(tu Tuple, pk int32) error {
		rec, ok, err := rt.GetByPKView(view, pk, ac)
		if err != nil || !ok {
			return err
		}
		fetched++
		if rightBP != nil && !rightBP.EvalRow(rec.Data) {
			return nil
		}
		for _, c := range residual {
			lv := tu.Record(leftShape, c.LeftPos).Get(c.LeftColIdx)
			rv := rec.Get(c.RightColIdx)
			if lv.Null || rv.Null || lv.IsI != rv.IsI ||
				(lv.IsI && lv.Int != rv.Int) || (!lv.IsI && lv.Str != rv.Str) {
				return nil
			}
		}
		dst.extend(tu, rec.Data)
		return nil
	}
	// probeTuple probes the right side for every match of tu's join key.
	probeTuple := func(tu Tuple) error {
		v := tu.Record(leftShape, primary.LeftPos).Get(primary.LeftColIdx)
		if v.Null {
			return nil
		}
		if step.RightIndexIsPK {
			if !v.IsI {
				return nil
			}
			return probe(tu, v.Int)
		}
		pks, err := seeker.IndexSeek(rt, step.RightIndex, v, ac)
		if err != nil {
			return err
		}
		for _, pk := range pks {
			if err := probe(tu, pk); err != nil {
				return err
			}
		}
		return nil
	}
	used := len(left)
	for i, tu := range left {
		if err := probeTuple(tu); err != nil {
			return nil, 0, err
		}
		if len(dst.list)-outStart >= budget {
			used = i + 1
			break
		}
	}
	out := dst.list[outStart:len(dst.list):len(dst.list)]
	if e.TL != nil {
		e.R.Eval(e.TL, fetched, terms+len(residual))
		e.R.Memcpy(e.TL, int64(len(out))*e.cacheWidth(pl.widths[si+1]))
		e.R.RowOverhead(e.TL, len(out), hw.CatBufferManage)
		e.chargeDeref(pl, si, len(out))
	}
	return out, used, nil
}

// tupleArenaBlock is the slot count of one arena block. A slot is a 24-byte
// slice header (one row view), so a block is one 192 KiB allocation feeding
// thousands of tuple extensions.
const tupleArenaBlock = 8192

// tupleArena carves Tuple backing arrays out of large shared blocks so the
// join output path performs one allocation per block instead of one per
// tuple, and none once the scratch that owns it has been through a run of
// the same size: blocks[:cur] are full, blocks[cur] is filled up to off, the
// rest wait for reuse. Carved tuples use full slice expressions, so an
// (out-of-contract) append on a Tuple can never bleed into its neighbor. A
// scratch — and therefore its arena — is only ever driven by one goroutine at
// a time: the cooperative executor runs host joins synchronously inside the
// device's emit callback, and the parallel sweep gives each worker its own
// engines and pipelines.
type tupleArena struct {
	blocks [][][]byte
	cur    int
	off    int
}

func (a *tupleArena) alloc(n int) Tuple {
	if n > tupleArenaBlock {
		return make(Tuple, n)
	}
	if len(a.blocks) > 0 && a.off+n > tupleArenaBlock {
		a.cur, a.off = a.cur+1, 0
	}
	if a.cur == len(a.blocks) {
		a.blocks = append(a.blocks, make([][]byte, tupleArenaBlock))
	}
	t := Tuple(a.blocks[a.cur][a.off : a.off+n : a.off+n])
	a.off += n
	return t
}

// extend appends the matched right-side row to tu in arena-backed storage.
func (a *tupleArena) extend(tu Tuple, right []byte) Tuple {
	nt := a.alloc(len(tu) + 1)
	copy(nt, tu)
	nt[len(tu)] = right
	return nt
}

// rewind returns the arena to block cur, offset off, a position it has been
// at, clearing every row view carved since — so every slot past the arena's
// position is always clear, and a block left for the next carve holds
// nothing.
func (a *tupleArena) rewind(cur, off int) {
	for i := cur; i <= a.cur && i < len(a.blocks); i++ {
		lo, hi := 0, tupleArenaBlock
		if i == cur {
			lo = off
		}
		if i == a.cur {
			hi = a.off
		}
		clear(a.blocks[i][lo:hi])
	}
	a.cur, a.off = cur, off
}
