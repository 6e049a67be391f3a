package lsm

import "bytes"

// View is a frozen, transactionally consistent read view of the tree: the C0
// contents and the SST lists captured at creation time. This is the
// update-aware NDP mechanism of nKV (paper §2.1): the shared state shipped
// with an NDP invocation pins exactly this view, so the device processes a
// consistent snapshot while the host keeps accepting writes.
//
// A view remains valid as long as the SSTs it references exist on flash;
// compactions triggered by further write traffic may retire them, so views
// are meant to live for the duration of one NDP invocation (as in nKV),
// not as long-lived readers.
type View struct {
	mem    []Entry // frozen C0 (sorted, newest version per key, tombstones kept)
	l1     []*SST
	levels [][]*SST
	tiered bool
}

// View captures the current state of the tree.
func (t *Tree) View() *View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := &View{
		l1:     append([]*SST(nil), t.l1...),
		tiered: t.cfg.Tiered,
	}
	for _, lvl := range t.levels {
		v.levels = append(v.levels, append([]*SST(nil), lvl...))
	}
	// MemContents acquires the lock itself; collect inline to avoid
	// re-entrancy.
	srcs := []mergeSource{&memSource{it: t.mem.Iter(nil)}}
	for _, m := range t.imm {
		srcs = append(srcs, &memSource{it: m.Iter(nil)})
	}
	for it := newMergeIter(srcs, Access{}, true); it.Valid(); it.Next() {
		e := it.Entry()
		v.mem = append(v.mem, Entry{
			Key:       append([]byte(nil), e.Key...),
			Value:     append([]byte(nil), e.Value...),
			Tombstone: e.Tombstone,
		})
	}
	return v
}

// frozenSource iterates the view's captured C0 entries.
type frozenSource struct {
	entries []Entry
	pos     int
}

func (s *frozenSource) valid() bool  { return s.pos < len(s.entries) }
func (s *frozenSource) entry() Entry { return s.entries[s.pos] }
func (s *frozenSource) next()        { s.pos++ }
func (s *frozenSource) err() error   { return nil }

func (s *frozenSource) seek(start []byte) { s.pos = searchEntries(s.entries, start) }

// Get retrieves the value for key as of the view's creation.
func (v *View) Get(key []byte, ac Access) ([]byte, bool, error) {
	fs := &frozenSource{entries: v.mem}
	fs.seek(key)
	if fs.valid() && bytes.Equal(fs.entry().Key, key) {
		return valueOf(fs.entry())
	}
	for _, s := range v.l1 {
		e, ok, err := s.Get(key, ac)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return valueOf(e)
		}
	}
	for _, lvl := range v.levels {
		e, ok, err := getFromLevel(lvl, key, ac, v.tiered)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return valueOf(e)
		}
	}
	return nil, false, nil
}

// Scan iterates [lo, hi) as of the view's creation.
func (v *View) Scan(lo, hi []byte, ac Access) *TreeIter {
	fs := &frozenSource{entries: v.mem}
	if lo != nil {
		fs.seek(lo)
	}
	srcs := []mergeSource{fs}
	for _, s := range v.l1 {
		if s.OverlapsRange(lo, hi) {
			srcs = append(srcs, &sstSource{it: s.Iter(lo, ac)})
		}
	}
	for _, lvl := range v.levels {
		for _, s := range lvl {
			if s.OverlapsRange(lo, hi) {
				srcs = append(srcs, &sstSource{it: s.Iter(lo, ac)})
			}
		}
	}
	return &TreeIter{inner: newMergeIter(srcs, ac, false), hi: hi}
}
