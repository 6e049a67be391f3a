package lsm

// View is a frozen, transactionally consistent read view of the tree: the SST
// lists captured at creation time. This is the update-aware NDP mechanism of
// nKV (paper §2.1): the shared state shipped with an NDP invocation pins
// exactly this view, so the device processes a consistent snapshot while the
// host keeps loading.
//
// A view remains valid as long as the SSTs it references exist on flash;
// compactions triggered by further loads may retire them, so views are meant
// to live for the duration of one NDP invocation (as in nKV), not as
// long-lived readers.
type View struct {
	levels [][]*SST // levels[0] = C1, levels[i] = C_{i+1}
}

// View captures the current state of the tree.
func (t *Tree) View() *View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := &View{levels: make([][]*SST, 0, 1+len(t.levels))}
	v.levels = append(v.levels, append([]*SST(nil), t.l1...))
	for _, lvl := range t.levels {
		v.levels = append(v.levels, append([]*SST(nil), lvl...))
	}
	return v
}

// Levels returns the view's SST lists: C1 (newest first), then each lower
// level in key order. C0 is always empty (data enters through BulkLoad) and
// has no list. Callers must not modify them.
func (v *View) Levels() [][]*SST { return v.levels }

// Get retrieves the value for key as of the view's creation.
func (v *View) Get(key []byte, ac Access) ([]byte, bool, error) {
	return get(v.levels[0], v.levels[1:], key, ac)
}

// ScanInto restarts it over [lo, hi) as of the view's creation, opening its
// sources in Tree.ScanInto's order: C1, then the lower levels.
func (v *View) ScanInto(it *TreeIter, lo, hi []byte, ac Access) {
	it.restart(lo, hi, ac, v.levels[0], v.levels[1:])
}
