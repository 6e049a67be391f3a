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
	// PointerCache stores intermediate results as pointers instead of
	// copied rows (paper §4.2 cache structure optimization).
	PointerCache bool
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
// execution paths): the driving scan streams through the join steps into the
// plan's finalizer, in the one pass whose inputs may be whole (chain.push).
func (e *Engine) RunPlan(p *Plan) (*Result, error) {
	pl, err := e.StartPipeline(p)
	if err != nil {
		return nil, err
	}
	rows, _, err := e.ScanAccess(pl, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	f, err := e.finalizer(pl)
	if err != nil {
		return nil, err
	}
	if err := e.stream(pl, 0, pl.MakeTuples(rows), false, nil, f.sink, true); err != nil {
		return nil, err
	}
	return f.result(), nil
}

// Pipeline is one run of a plan on the engine that started it: the plan's
// shared Prepared state plus this run's inner states — the materialized inner
// side of every join step, kept so chunked device execution builds each join's
// hash table only once.
type Pipeline struct {
	*Prepared
	Plan  *Plan
	inner []innerState
	// sc is the scratch of the engine that started the pipeline: tuples, hash
	// tables, probe vectors and the inner states live there whichever engine
	// drives a step (the cooperative device joins on the host's pipeline),
	// scan results in the scanning engine's own.
	sc *Scratch
}

// StartPipeline begins a run of the plan on this engine, over the plan's
// prepared state (Plan.Prepare) when it carries one for the engine's catalog
// and over a private one, built by the same constructor, when it does not.
func (e *Engine) StartPipeline(p *Plan) (*Pipeline, error) {
	pr := p.prepared
	if pr == nil || pr.cat != e.Cat {
		var err error
		if pr, err = prepare(e.Cat, p); err != nil {
			return nil, err
		}
	}
	sc := e.scratch()
	return &Pipeline{Prepared: pr, Plan: p, inner: sc.innerStates(len(p.Steps)), sc: sc}, nil
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
// and tuples both carved from the run's main store.
func (pl *Pipeline) MakeTuples(rows [][]byte) []Tuple {
	st := &pl.sc.main
	start := len(st.list)
	st.list = slices.Grow(st.list, len(rows))
	for _, r := range rows {
		t := st.arena.alloc(1)
		t[0] = r
		st.list = append(st.list, t)
	}
	return st.list[start:len(st.list):len(st.list)]
}

// AppendTuples appends src to dst — a tuple list a run builds up across calls
// (a device result set, a gather list), nil to start one — and returns the
// list. Lists are regions of the run's main store, so they live exactly as
// long as the run's lease and a warm scratch grows them without allocating.
func (pl *Pipeline) AppendTuples(dst []Tuple, src ...Tuple) []Tuple {
	return appendRegion(&pl.sc.main.list, dst, src)
}

// FinalShape returns the shape after all join steps.
func (pl *Pipeline) FinalShape() *Shape { return &pl.shapes[len(pl.shapes)-1] }

// ShapeAt returns the shape after k join steps.
func (pl *Pipeline) ShapeAt(k int) *Shape { return &pl.shapes[k] }

// TupleWidth reports the projected byte width of a tuple with the first n
// positions populated.
func (pl *Pipeline) TupleWidth(n int) int64 {
	var w int64
	for i := 0; i < n && i < len(pl.widths); i++ {
		w += pl.widths[i]
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
