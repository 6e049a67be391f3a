package exec

import (
	"sync"
	"unsafe"

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
	batch  ColBatch   // the scan batch, Rows/Sel sized for the last BatchSize
	views  [][]byte   // row-view slab; a scan result is the region it appended
	tuples []Tuple    // tuple slab: MakeTuples results and join output lists
	arena  tupleArena // backing arrays of the tuples themselves
	tabs   []*keyTab  // hash tables; tabs[:ntabs] are handed out this run
	ntabs  int

	// keyBuf is where byte keys are encoded: a join's one at a time, a
	// grouping's one batch at a time with probeEnd holding each key's end
	// offset. probeEnt is a probe batch's resolved hash-table entries (-1 =
	// NULL key or no match).
	keyBuf   []byte
	probeEnd []int32
	probeEnt []int32
}

// scratchRetainBytes bounds what a released scratch keeps, so a run whose
// working set is far past it (JOB 31c: ~100 MiB at scale 0.01, where the
// median query needs 0.8 MiB and the 99th percentile 4 MiB) cannot park its
// high-water mark in a free list for the life of the executor.
const scratchRetainBytes = 8 << 20

// scratchPoolMax bounds an executor's free list (a scheduler's worker pool of
// cooperative runs, or two 4-device fleet runs, fit).
const scratchPoolMax = 16

// onRelease, when set, runs on every scratch Release has rewound. Only the
// aliasing tests set it, to poison what a run left behind.
var onRelease func(*Scratch)

// keyTab hands out the run's next hash table, empty and sized for n rows.
func (s *Scratch) keyTab(n int) *keyTab {
	if s.ntabs == len(s.tabs) {
		s.tabs = append(s.tabs, &keyTab{})
	}
	t := s.tabs[s.ntabs]
	s.ntabs++
	t.reset(n)
	return t
}

// scanBatch returns the scan batch, empty, with room for bs rows of schema.
func (s *Scratch) scanBatch(schema *table.Schema, bs int) *ColBatch {
	b := &s.batch
	if cap(b.Rows) < bs {
		b.Rows, b.Sel = make([][]byte, 0, bs), make([]int32, 0, bs)
	}
	b.Reset(schema)
	return b
}

// Release ends the run: every slab is rewound with its capacity kept — or
// dropped, past the retention bound — and the pointer slabs are cleared, so a
// recycled scratch pins neither block-cache pages nor device batches of the
// finished query.
func (s *Scratch) Release() {
	clear(s.batch.Rows[:cap(s.batch.Rows)])
	clear(s.views)
	clear(s.tuples)
	s.views, s.tuples = s.views[:0], s.tuples[:0]
	s.arena.reset()
	s.ntabs = 0
	if s.Retained() > scratchRetainBytes {
		*s = Scratch{}
	}
	if onRelease != nil {
		onRelease(s)
	}
}

// Retained reports the bytes of capacity the scratch holds.
func (s *Scratch) Retained() int64 {
	const view, i32 = int64(unsafe.Sizeof([]byte(nil))), 4
	n := int64(cap(s.batch.Rows)+cap(s.views)+cap(s.tuples)+len(s.arena.blocks)*tupleArenaBlock)*view +
		int64(cap(s.batch.Sel)+cap(s.probeEnd)+cap(s.probeEnt))*i32 + int64(cap(s.keyBuf))
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
