package exec

import (
	"unsafe"

	"hybridndp/internal/obs"
)

// pieceTuples is the output budget of one piece of a streamed join chain: a
// join step hands its output on once it holds this many tuples. It is a
// constant of the engine, not a knob — virtual time is bit-identical to a
// materializing chain only for chains whose intermediates fit one piece
// (DESIGN.md §14) — and only the tests set it.
var pieceTuples = 16384

// tupleStore is a tuple slab and the arena its tuples' backing arrays are
// carved from.
type tupleStore struct {
	list  []Tuple
	arena tupleArena
}

// storeMark is a position in a tupleStore, the point rewind returns it to.
type storeMark struct{ n, cur, off int }

func (s *tupleStore) mark() storeMark { return storeMark{len(s.list), s.arena.cur, s.arena.off} }

// rewind drops every tuple carved after m and clears what it dropped, so
// everything past the store's position is always clear and holds no row.
func (s *tupleStore) rewind(m storeMark) {
	clear(s.list[m.n:])
	s.list = s.list[:m.n]
	s.arena.rewind(m.cur, m.off)
}

// extend appends tu extended by the matched right-side row.
func (s *tupleStore) extend(tu Tuple, right []byte) {
	s.list = append(s.list, s.arena.extend(tu, right))
}

// arenaBlockBytes is the size of one arena block.
const arenaBlockBytes = tupleArenaBlock * int64(unsafe.Sizeof([]byte(nil)))

// retained reports the store's capacity in bytes.
func (s *tupleStore) retained() int64 {
	return int64(cap(s.list))*int64(unsafe.Sizeof(Tuple(nil))) + int64(len(s.arena.blocks))*arenaBlockBytes
}

// shed drops arena blocks of a rewound store, at least n bytes of them while
// it has any, and returns the bytes dropped.
func (s *tupleStore) shed(n int64) int64 {
	b := s.arena.blocks
	k := min(len(b), int((n+arenaBlockBytes-1)/arenaBlockBytes))
	clear(b[len(b)-k:])
	s.arena.blocks = b[:len(b)-k]
	return int64(k) * arenaBlockBytes
}

// chain is one streamed pass of tuples through a pipeline's join steps.
type chain struct {
	e    *Engine
	pl   *Pipeline
	keep bool
	tr   *obs.Trace
	sink func([]Tuple) error
}

// stream pushes in through join steps [from, n) of the pipeline depth first,
// in pieces: a step stops at a left-tuple boundary once its output holds
// pieceTuples tuples, hands that piece to the next step — the last step's to
// sink — and resumes where it stopped. Each piece is carved from the
// scratch's piece store and rewound once the steps after it consumed it, so a
// chain's working set stays within a piece per step however large its
// intermediates grow. With keep set, the last step's pieces come from the
// run's main store instead and outlive the pass: the sink holds on to them.
//
// A step hands on every non-empty piece, and one empty piece for an input
// that produced none, so every step runs at least once on every input that
// reaches the step before it, as in a materializing chain, and an empty
// intermediate still books every later BNL inner build. With tr set, every
// piece a step runs is a host.join span.
func (e *Engine) stream(pl *Pipeline, from int, in []Tuple, keep bool, tr *obs.Trace, sink func([]Tuple) error) error {
	c := chain{e: e, pl: pl, keep: keep, tr: tr, sink: sink}
	return c.push(from, in)
}

// Stream runs tuples through join steps [from, n) as stream does and hands
// the survivors to sink, piece by piece; they live in the run's main store,
// as long as the run's lease.
func (e *Engine) Stream(pl *Pipeline, from int, in []Tuple, tr *obs.Trace, sink func([]Tuple) error) error {
	return e.stream(pl, from, in, true, tr, sink)
}

// push runs in through join step si and everything after it.
func (c *chain) push(si int, in []Tuple) error {
	n := len(c.pl.Plan.Steps)
	if si == n {
		return c.sink(in)
	}
	sc := c.pl.sc
	dst, rewind := &sc.piece, true
	if c.keep && si == n-1 {
		dst, rewind = &sc.main, false
	}
	handed := false
	for off := 0; ; {
		m := dst.mark()
		sp := c.tr.Start(c.e.TL, "host.join").AttrInt("step", int64(si))
		out, used, err := c.e.joinPiece(c.pl, si, in[off:], dst, pieceTuples)
		sp.AttrInt("in.rows", int64(used)).AttrInt("out.rows", int64(len(out))).End()
		if err != nil {
			return err
		}
		off += used
		last := off == len(in)
		if len(out) > 0 || last && !handed {
			if err := c.push(si+1, out); err != nil {
				return err
			}
			handed = true
		}
		if rewind {
			dst.rewind(m)
		}
		if last {
			return nil
		}
	}
}
