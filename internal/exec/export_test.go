package exec

import (
	"fmt"
	"math"
	"reflect"
)

// ScratchRetainBytes exposes the retention bound to the external tests.
const ScratchRetainBytes = scratchRetainBytes

// SetPieceBudget sets the output budget of a streamed join chain's pieces
// until the returned restore runs. Runs must not be in flight while it
// changes.
func SetPieceBudget(n int) (restore func()) {
	old := pieceTuples
	pieceTuples = n
	return func() { pieceTuples = old }
}

// PieceBudget reports the output budget of a streamed join chain's pieces.
func PieceBudget() int { return pieceTuples }

// SetProbeKeyed forces the probe-keyed path (Pipeline.innerTab) on for every
// whole first probe, or off for all, until the returned restore runs. Runs
// must not be in flight while it changes.
func SetProbeKeyed(on bool) (restore func()) {
	old := probeKeyedShare
	probeKeyedShare = math.MaxInt32 // no probe of a realistic inner side qualifies
	if on {
		probeKeyedShare = 0 // every probe qualifies
	}
	return func() { probeKeyedShare = old }
}

// hashedInner returns the hash table of join step si's built inner side as a
// probe that is not a step's whole input finds it: every row hashed, in row
// order.
func (pl *Pipeline) hashedInner(si int) *keyTab { return pl.innerTab(si, nil, false) }

// SetBatchSize sets the row capacity of every engine's columnar batches until
// the returned restore runs. Runs must not be in flight while it changes.
func SetBatchSize(n int) (restore func()) {
	old := batchRows
	batchRows = n
	return func() { batchRows = old }
}

// scanAP scans one access path on its own: the driving position of a
// one-table plan over it.
func (e *Engine) scanAP(ap AccessPath, loPK, hiPK *int32) ([][]byte, int64, error) {
	pl, err := e.StartPipeline(&Plan{Driving: ap})
	if err != nil {
		return nil, 0, err
	}
	return e.ScanAccess(pl, 0, loPK, hiPK)
}

// PoisonScratchOnRelease makes every Scratch release, until the returned
// restore runs, overwrite what the run left behind once it is rewound: every
// row-view slot (scan batch, view slab, arena blocks — used or not)
// points at one sentinel row of 0xA5 bytes, every tuple slot at a sentinel
// tuple of such rows, every inner-state slot claims a built inner side of
// such a row, and every hash-table key — arena byte or entry word,
// whichever representation the table last held — is flipped. A result or
// report that still aliases scratch memory then reads garbage, and the next
// run on the scratch finds garbage wherever it wrongly trusts a cleared slot.
func PoisonScratchOnRelease() (restore func()) {
	row := make([]byte, 4096)
	for i := range row {
		row[i] = 0xA5
	}
	tuple := make(Tuple, 32)
	for i := range tuple {
		tuple[i] = row
	}
	fill := func(views [][]byte) {
		for i := range views {
			views[i] = row
		}
	}
	onRelease = func(s *Scratch) {
		fill(s.batch.Rows[:cap(s.batch.Rows)])
		fill(s.views[:cap(s.views)])
		for _, st := range []*tupleStore{&s.main, &s.piece} {
			for _, b := range st.arena.blocks {
				fill(b)
			}
			tuples := st.list[:cap(st.list)]
			for i := range tuples {
				tuples[i] = tuple
			}
		}
		inners := s.inners[:cap(s.inners)]
		for i := range inners {
			inners[i] = innerState{rows: [][]byte{row}, built: true, seeded: true}
		}
		for _, t := range s.tabs {
			keys := t.keys[:cap(t.keys)]
			for i := range keys {
				keys[i] ^= 0xFF
			}
			entries := t.entries[:cap(t.entries)]
			for i := range entries {
				entries[i].key ^= ^uint64(0)
			}
		}
	}
	return func() { onRelease = nil }
}

// ReadPathReference names the first place the scratch's scan iterator or
// index seeker holds a pointer, interface or map — in a field or in any slot
// of a slice up to capacity — or returns "" when they hold none. Which slices
// may stay is lsm's test to pin (TestClearDropsEveryReference); this one
// checks that Release clears the iterator and the seeker at all.
func ReadPathReference(s *Scratch) string {
	var walk func(v reflect.Value, path string) string
	walk = func(v reflect.Value, path string) string {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if p := walk(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
					return p
				}
			}
		case reflect.Slice:
			all := v.Slice(0, v.Cap())
			for i := 0; i < all.Len(); i++ {
				if p := walk(all.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
					return p
				}
			}
		case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Func, reflect.Chan:
			if !v.IsNil() {
				return path
			}
		}
		return ""
	}
	if p := walk(reflect.ValueOf(s.iter), "iter"); p != "" {
		return p
	}
	return walk(reflect.ValueOf(s.seeker), "seeker")
}
