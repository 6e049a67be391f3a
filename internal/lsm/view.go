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
}

// View captures the current state of the tree.
func (t *Tree) View() *View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := &View{mem: t.memContentsLocked(), l1: append([]*SST(nil), t.l1...)}
	for _, lvl := range t.levels {
		v.levels = append(v.levels, append([]*SST(nil), lvl...))
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

// Scan iterates [lo, hi) as of the view's creation: ScanInto on a new
// TreeIter.
func (v *View) Scan(lo, hi []byte, ac Access) *TreeIter {
	it := &TreeIter{}
	v.ScanInto(it, lo, hi, ac)
	return it
}

// ScanInto restarts it over [lo, hi) as of the view's creation, opening its
// sources in Tree.ScanInto's order: the frozen C0, C1, the lower levels.
func (v *View) ScanInto(it *TreeIter, lo, hi []byte, ac Access) {
	it.hi, it.srcs = hi, it.srcs[:0]
	if len(v.mem) > 0 {
		it.addC0(v.mem, lo)
	}
	it.addSSTs(lo, hi, ac, v.l1, v.levels)
	it.inner.init(it.srcs, ac, false)
}
