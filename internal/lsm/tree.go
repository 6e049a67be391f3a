package lsm

import (
	"bytes"
	"slices"
	"sync"
	"unsafe"

	"hybridndp/internal/flash"
)

// Config tunes one LSM tree.
type Config struct {
	// SegmentBytes is how much input one C1 SST takes: BulkLoad closes a
	// segment at the entry that brings len(key)+len(value)+48, summed over the
	// segment, to SegmentBytes or beyond. Compaction writes SSTs of about twice
	// this.
	SegmentBytes int64
	// MaxL1Files triggers compaction of C1 (which may hold overlapping key
	// ranges) into C2 once exceeded.
	MaxL1Files int
	// LevelRatio is the size ratio r = |C_{i+1}|/|C_i| of classic (leveled)
	// LSM trees.
	LevelRatio int
	// BaseLevelBytes is the size limit of C2; level i+1 allows
	// BaseLevelBytes × LevelRatio^(i-2).
	BaseLevelBytes int64
}

// DefaultConfig mirrors a small RocksDB-ish setup, scaled for the simulator.
func DefaultConfig() Config {
	return Config{
		SegmentBytes:   4 << 20,
		MaxL1Files:     8,
		LevelRatio:     10,
		BaseLevelBytes: 64 << 20,
	}
}

// Tree is a multi-level LSM tree as organized in RocksDB/nKV (paper §2.2 and
// Fig. 4), loaded in bulk: C0, the in-memory level, stays empty; C1 holds the
// SSTs BulkLoad writes, with possibly overlapping key ranges (no merge on
// load, for performance); C2..CK hold non-overlapping SSTs produced by
// compaction.
type Tree struct {
	mu     sync.RWMutex
	cfg    Config
	fl     *flash.Flash
	l1     []*SST   // newest first, ranges may overlap; guarded by mu
	levels [][]*SST // levels[i] = C_{i+2}, sorted by min key, non-overlapping; guarded by mu
}

// NewTree creates an empty tree over the given flash module.
func NewTree(fl *flash.Flash, cfg Config) *Tree {
	if cfg.SegmentBytes <= 0 {
		cfg = DefaultConfig()
	}
	return &Tree{cfg: cfg, fl: fl}
}

// addL1Locked finishes an SST and makes it the newest file of C1.
func (t *Tree) addL1Locked(w *sstWriter) error {
	sst, err := w.finish(t.fl, Access{})
	if err != nil {
		return err
	}
	t.l1 = append([]*SST{sst}, t.l1...)
	return nil
}

// compactLocked is the compaction step every load segment ends with: C1 into C2 once
// C1 holds more than MaxL1Files, then one push per overflowing lower level.
func (t *Tree) compactLocked() error {
	if len(t.l1) > t.cfg.MaxL1Files {
		if err := t.compactL1Locked(); err != nil {
			return err
		}
	}
	return t.compactLowerLocked()
}

// compactL1Locked merges all of C1 with the overlapping part of C2. Outdated
// versions are removed; tombstones survive unless C2 becomes the last level.
func (t *Tree) compactL1Locked() error {
	if len(t.l1) == 0 {
		return nil
	}
	// C1's key range, started from its first file: an SST stores an empty
	// key as nil, so nil cannot stand for "not set yet".
	lo, hi := t.l1[0].MinKey(), t.l1[0].MaxKey()
	for _, s := range t.l1[1:] {
		if bytes.Compare(s.MinKey(), lo) < 0 {
			lo = s.MinKey()
		}
		if bytes.Compare(s.MaxKey(), hi) > 0 {
			hi = s.MaxKey()
		}
	}
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	var overlap, keep []*SST
	for _, s := range t.levels[0] {
		if s.OverlapsRange(lo, hi) {
			overlap = append(overlap, s)
		} else {
			keep = append(keep, s)
		}
	}
	// Sources newest first: C1 files (already newest first), then C2 overlap.
	srcs := make([]*SSTIter, 0, len(t.l1)+len(overlap))
	for _, s := range t.l1 {
		srcs = append(srcs, s.Iter(nil, Access{}))
	}
	for _, s := range overlap {
		srcs = append(srcs, s.Iter(nil, Access{}))
	}
	dropTombstones := len(t.levels) == 1 // C2 is the last level
	merged, err := mergeAll(srcs, dropTombstones)
	if err != nil {
		return err
	}
	old := append(append([]*SST(nil), t.l1...), overlap...)
	t.l1 = nil
	if len(merged) > 0 {
		outs, err := t.buildRuns(merged)
		if err != nil {
			return err
		}
		keep = append(keep, outs...)
	}
	sortByMinKey(keep)
	t.levels[0] = keep
	for _, s := range old {
		t.fl.DeleteFile(s.File())
	}
	return nil
}

// compactLowerLocked pushes overflowing levels downward (classic leveled
// compaction with ratio r).
func (t *Tree) compactLowerLocked() error {
	for i := 0; i < len(t.levels); i++ {
		limit := t.cfg.BaseLevelBytes
		for j := 0; j < i; j++ {
			limit *= int64(t.cfg.LevelRatio)
		}
		var size int64
		for _, s := range t.levels[i] {
			size += s.DataBytes()
		}
		if size <= limit || len(t.levels[i]) == 0 {
			continue
		}
		if i+1 >= len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		// Move the first (smallest-key) SST down, merging with overlap.
		victim := t.levels[i][0]
		t.levels[i] = t.levels[i][1:]
		var overlap, keep []*SST
		for _, s := range t.levels[i+1] {
			if s.OverlapsRange(victim.MinKey(), victim.MaxKey()) {
				overlap = append(overlap, s)
			} else {
				keep = append(keep, s)
			}
		}
		srcs := []*SSTIter{victim.Iter(nil, Access{})}
		for _, s := range overlap {
			srcs = append(srcs, s.Iter(nil, Access{}))
		}
		dropTombstones := i+2 == len(t.levels)
		merged, err := mergeAll(srcs, dropTombstones)
		if err != nil {
			return err
		}
		if len(merged) > 0 {
			outs, err := t.buildRuns(merged)
			if err != nil {
				return err
			}
			keep = append(keep, outs...)
		}
		sortByMinKey(keep)
		t.levels[i+1] = keep
		t.fl.DeleteFile(victim.File())
		for _, s := range overlap {
			t.fl.DeleteFile(s.File())
		}
	}
	return nil
}

// buildRuns splits merged entries into SSTs of about twice SegmentBytes.
func (t *Tree) buildRuns(entries []Entry) ([]*SST, error) {
	var outs []*SST
	var run []Entry
	var runBytes int64
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		s, err := BuildSST(t.fl, run, Access{})
		if err != nil {
			return err
		}
		outs = append(outs, s)
		run = nil
		runBytes = 0
		return nil
	}
	for _, e := range entries {
		run = append(run, e)
		runBytes += int64(len(e.Key) + len(e.Value))
		if runBytes >= 2*t.cfg.SegmentBytes {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return outs, nil
}

func sortByMinKey(ssts []*SST) {
	for i := 1; i < len(ssts); i++ {
		for j := i; j > 0 && bytes.Compare(ssts[j].MinKey(), ssts[j-1].MinKey()) < 0; j-- {
			ssts[j], ssts[j-1] = ssts[j-1], ssts[j]
		}
	}
}

// mergeAll drains the sources (ordered newest first) into a deduplicated
// sorted entry list.
func mergeAll(srcs []*SSTIter, dropTombstones bool) ([]Entry, error) {
	var it mergeIter
	it.init(srcs, Access{}, !dropTombstones)
	var out []Entry
	for it.Valid() {
		e := it.Entry()
		if !(dropTombstones && e.Tombstone) {
			out = append(out, Entry{
				Key:       append([]byte(nil), e.Key...),
				Value:     append([]byte(nil), e.Value...),
				Tombstone: e.Tombstone,
			})
		}
		it.Next()
	}
	return out, it.Err()
}

// Get retrieves the entry for key following the paper's lookup order: C1
// (every overlapping SST, newest first), then one SST per lower level.
func (t *Tree) Get(key []byte, ac Access) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return get(t.l1, t.levels, key, ac)
}

// get is Get over the given C1 and lower levels (a tree's or a view's).
func get(l1 []*SST, levels [][]*SST, key []byte, ac Access) ([]byte, bool, error) {
	for _, s := range l1 {
		e, ok, err := s.Get(key, ac)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return valueOf(e)
		}
	}
	for _, lvl := range levels {
		e, ok, err := getFromLevel(lvl, key, ac)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return valueOf(e)
		}
	}
	return nil, false, nil
}

// getFromLevel resolves a key inside one level of non-overlapping SSTs
// (binary search).
func getFromLevel(lvl []*SST, key []byte, ac Access) (Entry, bool, error) {
	i := searchLevel(lvl, key)
	if i < 0 {
		return Entry{}, false, nil
	}
	return lvl[i].Get(key, ac)
}

func valueOf(e Entry) ([]byte, bool, error) {
	if e.Tombstone {
		return nil, false, nil
	}
	return e.Value, true, nil
}

// searchLevel finds the single SST in a non-overlapping level that could
// contain key, or -1.
func searchLevel(lvl []*SST, key []byte) int {
	lo, hi := 0, len(lvl)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := lvl[mid]
		switch {
		case bytes.Compare(key, s.MinKey()) < 0:
			hi = mid - 1
		case bytes.Compare(key, s.MaxKey()) > 0:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Scan returns a merged iterator over [lo, hi) (nil bounds are unbounded):
// ScanInto on a new TreeIter.
func (t *Tree) Scan(lo, hi []byte, ac Access) *TreeIter {
	it := &TreeIter{}
	t.ScanInto(it, lo, hi, ac)
	return it
}

// ScanInto restarts it as a merged iterator over [lo, hi) (nil bounds are
// unbounded). Fence pointers exclude SSTs entirely outside the range before
// any flash read happens, as in MyRocks/RocksDB. Sources open newest first —
// C1 newest first, then each lower level — so index seeks and first block
// reads are charged in that order.
func (t *Tree) ScanInto(it *TreeIter, lo, hi []byte, ac Access) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	it.restart(lo, hi, ac, t.l1, t.levels)
}

// TreeIter walks the merged view of a tree or a View, hiding tombstones and
// stopping at the upper bound. It owns its storage — the merge heap, the
// source list and the SST iterators themselves — so ScanInto restarts it
// without allocating once it has served a scan of as many sources. Restarting
// invalidates only the iterator's own position: entries and runs it handed out
// alias decoded blocks, never the iterator.
type TreeIter struct {
	inner mergeIter
	hi    []byte
	srcs  []*SSTIter // the merge's sources, newest first; point into ssts
	ssts  []SSTIter  // one per overlapping SST
}

// restart positions it over [lo, hi) of the given C1 and lower levels,
// opening an iterator on every SST whose fences overlap [lo, hi] — inclusive
// here, as OverlapsRange takes them. The slab is sized for every SST first, so
// no append moves an iterator srcs points at.
func (it *TreeIter) restart(lo, hi []byte, ac Access, l1 []*SST, levels [][]*SST) {
	n := len(l1)
	for _, lvl := range levels {
		n += len(lvl)
	}
	it.hi, it.srcs = hi, it.srcs[:0]
	it.ssts = slices.Grow(it.ssts[:0], n)
	add := func(s *SST) {
		if s.OverlapsRange(lo, hi) {
			it.ssts = append(it.ssts, SSTIter{})
			src := &it.ssts[len(it.ssts)-1]
			src.init(s, lo, ac)
			it.srcs = append(it.srcs, src)
		}
	}
	for _, s := range l1 {
		add(s)
	}
	for _, lvl := range levels {
		for _, s := range lvl {
			add(s)
		}
	}
	it.inner.init(it.srcs, ac, false)
}

// Clear drops every reference the iterator holds — SSTs, decoded blocks, the
// access's timeline and cache — and keeps its storage. A cleared iterator is
// invalid until the next ScanInto.
func (it *TreeIter) Clear() {
	clear(it.inner.srcs[:cap(it.inner.srcs)])
	clear(it.srcs[:cap(it.srcs)])
	clear(it.ssts[:cap(it.ssts)])
	*it = TreeIter{
		inner: mergeIter{srcs: it.inner.srcs[:0], ages: it.inner.ages[:0]},
		srcs:  it.srcs[:0], ssts: it.ssts[:0],
	}
}

// Retained reports the bytes of storage the iterator keeps for its next scan.
func (it *TreeIter) Retained() int64 {
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	return int64(cap(it.inner.srcs)+cap(it.srcs)+cap(it.inner.ages))*ptr +
		int64(cap(it.ssts))*int64(unsafe.Sizeof(SSTIter{}))
}

// Valid reports whether the iterator is positioned on a live entry.
func (it *TreeIter) Valid() bool {
	it.skipDead()
	if !it.inner.Valid() {
		return false
	}
	if it.hi != nil && bytes.Compare(it.inner.Entry().Key, it.hi) >= 0 {
		return false
	}
	return true
}

func (it *TreeIter) skipDead() {
	for it.inner.Valid() && it.inner.Entry().Tombstone {
		it.inner.Next()
	}
}

// Entry returns the current entry; only valid while Valid().
func (it *TreeIter) Entry() Entry { return it.inner.Entry() }

// Next advances to the next live entry.
func (it *TreeIter) Next() { it.inner.Next() }

// Err reports a read error encountered while iterating. Valid turns false on
// a failed read, so a loop that ends must check Err before trusting what it
// collected.
func (it *TreeIter) Err() error { return it.inner.Err() }

// Run returns the live entries that follow the current one and need no merge
// decision: the rest of the current data block of the only source still
// feeding the merge, cut at the upper bound and at the first tombstone. It is
// empty whenever two or more sources are live (they merge entry by entry, each
// heap comparison charged). The slice aliases
// the SST's immutable decoded block and stays readable as long as the values
// Entry hands out do; taking it charges nothing.
//
//	for ; it.Valid(); it.Next() {
//		use(it.Entry())
//		run := it.Run()
//		for i := range run {
//			use(run[i])
//		}
//		it.Consume(len(run))
//	}
func (it *TreeIter) Run() []Entry {
	run := it.inner.run()
	if it.hi != nil {
		run = run[:searchEntries(run, it.hi)]
	}
	for i := range run {
		if run[i].Tombstone {
			return run[:i]
		}
	}
	return run
}

// Consume steps over the first n entries of the last Run, leaving the n-th
// current: the iterator's position, virtual time and fault draws are those of
// n calls of Next.
func (it *TreeIter) Consume(n int) { it.inner.consume(n) }

// Stats summarizes the tree for the optimizer's statistics collection.
type Stats struct {
	DataBytes int64
	Levels    int
	SSTs      int
}

// Stats reports aggregate tree statistics. DataBytes over-counts keys
// duplicated across levels, matching the imprecision of real system
// statistics. Levels counts the empty C0.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var st Stats
	count := func(ssts []*SST) {
		for _, s := range ssts {
			st.DataBytes += s.DataBytes()
			st.SSTs++
		}
	}
	count(t.l1)
	st.Levels = 1
	if len(t.l1) > 0 {
		st.Levels = 2
	}
	for _, lvl := range t.levels {
		count(lvl)
		if len(lvl) > 0 {
			st.Levels++
		}
	}
	return st
}
