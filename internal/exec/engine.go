package exec

import (
	"encoding/binary"
	"slices"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Engine executes physical plans against a catalog, charging all work to its
// timeline at its rate table. A host engine has effectively unbounded
// buffers; the device engine (internal/device) wraps an Engine with the
// paper's memory reservations and the pointer-cache switch.
type Engine struct {
	Cat *table.Catalog
	TL  *vclock.Timeline
	R   hw.Rates

	// Cache is the engine's block cache (RocksDB block cache on the host,
	// data-block buffer on the device); nil disables caching.
	Cache *lsm.BlockCache
	// Bloom, when set, accumulates Bloom-filter probe outcomes for the
	// metrics registry (host engines only; the device never probes filters).
	Bloom *lsm.BloomStats
	// Views maps table names to frozen read views (update-aware NDP): the
	// device engine resolves primary-data reads against the snapshot that
	// accompanied the invocation, so host-side writes issued after the
	// invocation stay invisible to it. Nil entries fall back to live reads.
	Views map[string]*lsm.View
	// JoinBuf bounds the join buffer (hw_MSJ on device); 0 = unbounded.
	// A bounded buffer forces extra BNL passes over the inner table.
	JoinBuf int64
	// SelBuf bounds the selection result cache (hw_MSS on device).
	SelBuf int64
	// PointerCache stores intermediate results as pointers instead of
	// copied rows (paper §4.2 cache structure optimization).
	PointerCache bool
	// BatchSize is the row capacity of the columnar batches the engine's
	// operators process at a time (0 = DefaultBatchSize). Charges derive from
	// accumulated batch counts with the same integer math at every size, so
	// virtual time is byte-identical for any value; the knob only trades
	// wall-clock locality against scratch memory.
	BatchSize int
	// Faults, when set, injects flash read failures into this engine's
	// storage accesses (chaos runs; see internal/fault).
	Faults flash.Faults
	// Scratch is the working memory every operator of this engine runs in.
	// Executors hand each engine one from their pool and release it when the
	// run is over; an engine nobody handed one makes its own on first use.
	Scratch *Scratch
}

// scratch returns the engine's working memory.
func (e *Engine) scratch() *Scratch {
	if e.Scratch == nil {
		e.Scratch = &Scratch{}
	}
	return e.Scratch
}

// Access returns the engine's LSM access context.
func (e *Engine) Access() lsm.Access {
	return lsm.Access{TL: e.TL, R: e.R, Cache: e.Cache, Bloom: e.Bloom, Faults: e.Faults}
}

// viewOf returns the frozen view for a table, if the engine reads through a
// snapshot.
func (e *Engine) viewOf(tableName string) *lsm.View {
	if e.Views == nil {
		return nil
	}
	return e.Views[tableName]
}

// Result is the output of a (partial) plan execution.
type Result struct {
	Columns  []string
	Rows     [][]table.Value // retained rows (capped at RetainRows)
	RowCount int64
	Bytes    int64 // total output payload bytes
}

// RetainRows caps the rows materialized into Result.Rows; counts and byte
// totals always cover the full output.
const RetainRows = 100

// RunPlan executes the whole plan on this engine (host-only / full-NDP
// execution paths).
func (e *Engine) RunPlan(p *Plan) (*Result, error) {
	pl, err := e.StartPipeline(p)
	if err != nil {
		return nil, err
	}
	rows, _, err := e.ScanAccess(p.Driving, nil, nil)
	if err != nil {
		return nil, err
	}
	tuples := pl.MakeTuples(rows)
	for si := range p.Steps {
		tuples, err = e.JoinStep(pl, si, tuples)
		if err != nil {
			return nil, err
		}
	}
	return e.Finalize(pl, tuples)
}

// Pipeline carries the resolved state of one plan execution: the tuple shape
// and per-position projected widths, plus cached inner-side state so chunked
// device execution builds each join's hash table only once.
type Pipeline struct {
	Plan   *Plan
	Shapes []*Shape // Shapes[i] = shape after i join steps
	Widths []int64  // projected bytes per tuple position
	inner  []*innerState

	// conds holds per-step join conditions with verified column indices (the
	// plan's conds are not mutated; hand-built plans may carry unresolved
	// indices).
	conds [][]BoundCond
	// intKeys[si] is step si's join key in the hash table's integer
	// representation; n == 0 leaves the step on encoded byte keys.
	intKeys []intKeys
	// sc is the scratch of the engine that started the pipeline: tuples, hash
	// tables and probe vectors live there whichever engine drives a step (the
	// cooperative device joins on the host's pipeline), scan results in the
	// scanning engine's own.
	sc *Scratch
}

// StartPipeline resolves tables and builds shapes for the plan.
func (e *Engine) StartPipeline(p *Plan) (*Pipeline, error) {
	t0, err := e.Cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return nil, err
	}
	sh := NewShape([]string{p.Driving.Ref.Alias}, []*table.Schema{t0.Schema})
	pl := &Pipeline{
		Plan:   p,
		Shapes: []*Shape{sh},
		Widths: []int64{projWidth(t0.Schema, p.Driving.Proj)},
		inner:  make([]*innerState, len(p.Steps)),
		sc:     e.scratch(),
	}
	for _, s := range p.Steps {
		tr, err := e.Cat.Table(s.Right.Ref.Table)
		if err != nil {
			return nil, err
		}
		sh = sh.Extend(s.Right.Ref.Alias, tr.Schema)
		pl.Shapes = append(pl.Shapes, sh)
		pl.Widths = append(pl.Widths, projWidth(tr.Schema, s.Right.Proj))
	}
	pl.conds = make([][]BoundCond, len(p.Steps))
	pl.intKeys = make([]intKeys, len(p.Steps))
	for si, s := range p.Steps {
		cs := make([]BoundCond, len(s.Conds))
		copy(cs, s.Conds)
		leftSh := pl.Shapes[si]
		rightSchema := pl.Shapes[si+1].Schemas[len(pl.Shapes[si+1].Schemas)-1]
		for i := range cs {
			c := &cs[i]
			if c.LeftPos >= 0 && c.LeftPos < len(leftSh.Schemas) {
				ls := leftSh.Schemas[c.LeftPos]
				if c.LeftColIdx < 0 || c.LeftColIdx >= len(ls.Columns) || ls.Columns[c.LeftColIdx].Name != c.LeftCol {
					c.LeftColIdx = ls.ColumnIndex(c.LeftCol)
				}
			}
			if c.RightColIdx < 0 || c.RightColIdx >= len(rightSchema.Columns) || rightSchema.Columns[c.RightColIdx].Name != c.RightCol {
				c.RightColIdx = rightSchema.ColumnIndex(c.RightCol)
			}
		}
		pl.conds[si] = cs
		pl.intKeys[si] = bindIntKeys(leftSh, rightSchema, cs)
	}
	return pl, nil
}

// intKeyCol addresses one Int32 join column in the fixed-width layout.
type intKeyCol struct {
	pos   int32 // tuple position (left side)
	off   int32
	nullB int32
	nullM byte
}

// read returns the column's raw payload and whether it is non-NULL.
func (c *intKeyCol) read(row []byte) (uint64, bool) {
	return uint64(binary.LittleEndian.Uint32(row[c.off:])), row[c.nullB]&c.nullM == 0
}

// intKeys is a join step's key in the integer representation: the raw 4-byte
// payloads of the n ≤ 2 condition columns of a side packed into one word.
type intKeys struct {
	n           int
	left, right [2]intKeyCol
}

// intKeyEncodedLen is what one condition of an integer key is booked at in
// Rates.Memcmp: the length of its byte encoding ('i' + 4 bytes + NUL).
const intKeyEncodedLen = 6

// bindIntKeys resolves a step's conditions to the integer representation, when
// there are one or two and both sides of each are Int32 columns. Anything else
// (CHAR keys, three or more conditions, unresolved columns — and Int32 = CHAR,
// which matches nothing because the encodings' type tags differ, where raw
// payloads would compare garbage) stays on byte keys.
func bindIntKeys(leftSh *Shape, right *table.Schema, conds []BoundCond) (k intKeys) {
	if len(conds) == 0 || len(conds) > len(k.left) {
		return intKeys{}
	}
	bind := func(s *table.Schema, pos, idx int) (intKeyCol, bool) {
		if idx < 0 || idx >= len(s.Columns) || s.Columns[idx].Type != table.Int32 {
			return intKeyCol{}, false
		}
		nb, nm := s.NullBit(idx)
		return intKeyCol{pos: int32(pos), off: int32(s.ColumnOffset(idx)), nullB: int32(nb), nullM: nm}, true
	}
	for i, c := range conds {
		if c.LeftPos < 0 || c.LeftPos >= len(leftSh.Schemas) {
			return intKeys{}
		}
		var okL, okR bool
		k.left[i], okL = bind(leftSh.Schemas[c.LeftPos], c.LeftPos, c.LeftColIdx)
		k.right[i], okR = bind(right, 0, c.RightColIdx)
		if !okL || !okR {
			return intKeys{}
		}
	}
	k.n = len(conds)
	return k
}

// rowKey packs the key of a right-side row; ok is false when a component is
// NULL.
func (k *intKeys) rowKey(row []byte) (key uint64, ok bool) {
	key, ok = k.right[0].read(row)
	if ok && k.n == 2 {
		var hi uint64
		hi, ok = k.right[1].read(row)
		key |= hi << 32
	}
	return key, ok
}

// tupleKey packs the key of a left tuple.
func (k *intKeys) tupleKey(tu Tuple) (key uint64, ok bool) {
	key, ok = k.left[0].read(tu[k.left[0].pos])
	if ok && k.n == 2 {
		var hi uint64
		hi, ok = k.left[1].read(tu[k.left[1].pos])
		key |= hi << 32
	}
	return key, ok
}

// MakeTuples materializes scan rows as single-position driving tuples, list
// and tuples both carved from the pipeline's scratch.
func (pl *Pipeline) MakeTuples(rows [][]byte) []Tuple {
	sc := pl.sc
	start := len(sc.tuples)
	sc.tuples = slices.Grow(sc.tuples, len(rows))
	for _, r := range rows {
		t := sc.arena.alloc(1)
		t[0] = r
		sc.tuples = append(sc.tuples, t)
	}
	return sc.tuples[start:len(sc.tuples):len(sc.tuples)]
}

// FinalShape returns the shape after all join steps.
func (pl *Pipeline) FinalShape() *Shape { return pl.Shapes[len(pl.Shapes)-1] }

// ShapeAt returns the shape after k join steps.
func (pl *Pipeline) ShapeAt(k int) *Shape { return pl.Shapes[k] }

// TupleWidth reports the projected byte width of a tuple with the first n
// positions populated.
func (pl *Pipeline) TupleWidth(n int) int64 {
	var w int64
	for i := 0; i < n && i < len(pl.Widths); i++ {
		w += pl.Widths[i]
	}
	return w
}

// projWidth sums the aligned stored widths of the projected columns (all
// columns when proj is empty — full projection).
func projWidth(s *table.Schema, proj []string) int64 {
	if len(proj) == 0 {
		return int64(s.RowBytes())
	}
	var w int64
	for _, c := range proj {
		w += int64(s.ColumnStoredBytes(c))
	}
	if w == 0 {
		w = 4
	}
	return w
}

// Finalize applies grouping/aggregation or projection to the joined tuples.
func (e *Engine) Finalize(pl *Pipeline, tuples []Tuple) (*Result, error) {
	p := pl.Plan
	sh := pl.FinalShape()
	if len(p.Aggregates) > 0 || len(p.GroupBy) > 0 {
		return e.groupAggregate(pl.sc, sh, tuples, p.GroupBy, p.Aggregates)
	}
	return e.projectTuples(sh, tuples, p.Output)
}
