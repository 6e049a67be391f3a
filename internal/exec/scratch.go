package exec

import (
	"slices"
	"sync"
	"unsafe"

	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
)

// Scratch is the working set one engine executes a run in — the simulator's
// counterpart of the device's fixed reservations (hw_MSS, hw_MSJ, the shared
// buffer slots). Nothing in it is freed during a run; Release rewinds all of
// it at once and keeps the capacity, so the next run on the same scratch
// allocates only what it needs beyond the previous high-water mark.
//
// Lifetime rule: scratch memory is valid until the run's executor releases it,
// once, after the run's report is built. Nothing reachable from a Result or a
// report may alias it (Result.Rows holds decoded Values, never row views). A
// scratch serves one goroutine at a time: the run that holds it.
type Scratch struct {
	batch  ColBatch     // the scan batch, Rows/Sel sized for the last batch size
	views  [][]byte     // row-view slab: scan results, grown inner sides
	inners []innerState // the inner states of the pipelines started on the scratch
	tabs   []*keyTab    // hash tables; tabs[:ntabs] are handed out this run
	ntabs  int
	cache  *lsm.BlockCache // the engine's block cache, handed out cold by BlockCache
	fin    finalizer       // the top of the plan the run finishes on this scratch

	// main holds the tuples that live for the run: MakeTuples results,
	// JoinStep outputs, tuple lists (device result sets, gather lists). piece
	// holds a streamed join chain's pieces, each rewound once consumed.
	main, piece tupleStore

	// keyBuf is where byte keys are encoded: a join's one at a time, a
	// grouping's one batch at a time with probeEnd holding each key's end
	// offset. probeHits is a probe batch's resolved hash-table entries.
	keyBuf    []byte
	probeEnd  []int32
	probeHits []probeHit

	// The read path: ScanAccess's scan iterator and encoded [lo, hi) bounds,
	// and the seeker of every index seek the engine runs. No scan or seek
	// nests inside another on one engine, so one of each serves a run.
	iter   lsm.TreeIter
	lo, hi []byte
	seeker table.Seeker
}

// scratchRetainBytes bounds what a released scratch keeps, so a run whose
// working set is far past it cannot park its high-water mark in a free list
// for the life of the executor. Streamed join chains keep every intermediate
// within a few pieces, but driving and BNL inner scan results are still
// whole, so a scan of a large table can still carry a working set past it
// (the median JOB query needs 0.8 MiB at scale 0.01, the 99th percentile 4
// MiB).
const scratchRetainBytes = 8 << 20

// scratchPoolMax bounds an executor's free list (a scheduler's worker pool of
// cooperative runs, or two 4-device fleet runs, fit).
const scratchPoolMax = 16

// onRelease, when set, runs on every scratch Release has rewound. Only the
// aliasing tests set it, to poison what a run left behind.
var onRelease func(*Scratch)

// keyTab hands out the run's next hash table, for the caller to reset.
func (s *Scratch) keyTab() *keyTab {
	if s.ntabs == len(s.tabs) {
		s.tabs = append(s.tabs, &keyTab{})
	}
	t := s.tabs[s.ntabs]
	s.ntabs++
	return t
}

// scanBatch returns the scan batch, empty, with room for bs rows.
func (s *Scratch) scanBatch(bs int) *ColBatch {
	b := &s.batch
	if cap(b.Rows) < bs {
		b.Rows, b.Sel = make([][]byte, 0, bs), make([]int32, 0, bs)
	}
	b.Reset()
	return b
}

// innerStates hands out n empty inner states for a pipeline.
func (s *Scratch) innerStates(n int) []innerState {
	start := len(s.inners)
	s.inners = slices.Grow(s.inners, n)[:start+n]
	r := s.inners[start : start+n : start+n]
	clear(r)
	return r
}

// BlockCache returns the scratch's block cache, cold and bounded to capacity
// bytes: every run starts cold (the model), and a recycled scratch resets the
// cache it has (lsm.BlockCache.Reset) instead of building a new one. The
// engine the scratch is handed to is the cache's one user for the run.
func (s *Scratch) BlockCache(capacity int64) *lsm.BlockCache {
	if s.cache == nil {
		s.cache = lsm.NewBlockCache(capacity)
	} else {
		s.cache.Reset(capacity)
	}
	return s.cache
}

// appendRegion appends src to dst, a region of *slab (nil starts one), and
// returns the region: in place while dst has room, otherwise moved to a fresh
// region at the slab's end with room for twice its new length. A region's
// spare capacity lies inside the slab's length, so no other region is ever
// carved over it and any number of lists can grow at once; what a move leaves
// behind is reclaimed at Release. dst must be nil or a region this function
// returned: a slice with spare capacity someone else owns would be written.
func appendRegion[T any](slab *[]T, dst, src []T) []T {
	n := len(dst) + len(src)
	if n <= cap(dst) {
		return append(dst, src...)
	}
	start := len(*slab)
	*slab = slices.Grow(*slab, 2*n)[:start+2*n]
	r := append((*slab)[start:start:start+2*n], dst...)
	return append(r, src...)
}

// Release ends the run: every slab is rewound with its capacity kept, the
// pointer slabs are cleared, the iterator and the seeker let go of the SSTs,
// views and decoded blocks they read, and the block cache is emptied, so a
// recycled scratch pins neither storage, block-cache pages nor device batches
// of the finished query. A scratch past the retention bound sheds tuple arena
// blocks, the bulk of a heavy join chain's working set, down to the bound,
// and everything when that is not enough.
func (s *Scratch) Release() {
	clear(s.batch.Rows[:cap(s.batch.Rows)])
	clear(s.views)
	clear(s.inners)
	s.views, s.inners = s.views[:0], s.inners[:0]
	s.main.rewind(storeMark{})
	s.piece.rewind(storeMark{})
	s.fin.reset()
	s.iter.Clear()
	s.seeker.Clear()
	s.ntabs = 0
	s.cache.Reset(0)
	if over := s.Retained() - scratchRetainBytes; over > 0 {
		over -= s.piece.shed(over)
		if over -= s.main.shed(over); over > 0 {
			*s = Scratch{}
		}
	}
	if onRelease != nil {
		onRelease(s)
	}
}

// Retained reports the bytes of capacity the scratch holds, its block cache's,
// iterator's and seeker's included.
func (s *Scratch) Retained() int64 {
	const view, i32 = int64(unsafe.Sizeof([]byte(nil))), 4
	n := int64(cap(s.batch.Rows)+cap(s.views))*view + s.main.retained() + s.piece.retained() +
		int64(cap(s.batch.Sel)+cap(s.probeEnd)+2*cap(s.probeHits))*i32 +
		int64(cap(s.keyBuf)+cap(s.lo)+cap(s.hi)) +
		int64(cap(s.inners))*int64(unsafe.Sizeof(innerState{})) + s.cache.Retained() +
		s.iter.Retained() + s.seeker.Retained() + s.fin.retained()
	for _, t := range s.tabs {
		n += int64(cap(t.buckets)+cap(t.next))*i32 + int64(cap(t.keys)) +
			int64(cap(t.entries))*int64(unsafe.Sizeof(keyEntry{}))
	}
	return n
}

// ScratchPool is an executor's free list of scratches: a mutex-guarded stack,
// not a sync.Pool — collections run every few queries here, and a pool the
// collector empties would make a query's allocation depend on GC timing.
type ScratchPool struct {
	mu   sync.Mutex
	free []*Scratch // guarded by mu
}

// Lease is one run's hold on its executor's pool. Every engine the run builds
// takes a scratch from it and Release returns them together: host and device
// scratches reference each other's memory (device batches and H0 leaf rows
// sit in host hash tables), so they live and die as one.
type Lease struct {
	pool *ScratchPool
	held []*Scratch
}

// Lease opens a run's lease.
func (p *ScratchPool) Lease() *Lease { return &Lease{pool: p} }

// Scratch takes one scratch for an engine of the run.
func (l *Lease) Scratch() *Scratch {
	s := l.pool.get()
	l.held = append(l.held, s)
	return s
}

// Release releases every scratch the run took and returns them to the free
// list. The run's report must be complete by now.
func (l *Lease) Release() {
	for _, s := range l.held {
		s.Release()
	}
	l.pool.put(l.held)
	l.held = nil
}

func (p *ScratchPool) get() *Scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return &Scratch{}
}

// put pushes a run's scratches back in reverse order of taking, so the next
// run's engines pop them in the same roles: the host engine gets the scratch
// a host engine grew, not a device's.
func (p *ScratchPool) put(ss []*Scratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(ss) - 1; i >= 0 && len(p.free) < scratchPoolMax; i-- {
		p.free = append(p.free, ss[i])
	}
}
