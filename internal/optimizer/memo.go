package optimizer

import (
	"slices"
	"sync"

	"hybridndp/internal/exec"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// memoCap bounds the plan memo; past it the oldest entry goes first.
const memoCap = 1024

// memoEntry is one planned query: the first-seen query object (the plan's
// Query), its plan, and per FROM position the table and the statistics the
// plan was computed under. Entries are immutable once stored.
type memoEntry struct {
	q     *query.Query
	plan  *exec.Plan
	tabs  []*table.Table
	stats []*table.Stats
}

// current reports whether every table still has the statistics the entry was
// planned under. Table.BulkLoad drops a table's statistics and the next
// CollectStats builds a new object, so identity is validity.
func (e *memoEntry) current() bool {
	for i, t := range e.tabs {
		if t.CollectStats() != e.stats[i] {
			return false
		}
	}
	return true
}

// planMemo is BuildPlan's memo, keyed by query.Fingerprint — to planning what
// SST.parsed is to block decoding: wall-clock only, invisible to virtual time
// and to every result. One entry per fingerprint: a lookup that finds another
// query or stale statistics under its fingerprint plans afresh and replaces
// the entry in place. It also keeps a planner's selection-vector buffer.
type planMemo struct {
	mu      sync.Mutex
	entries map[uint64]*memoEntry // guarded by mu
	order   []uint64              // guarded by mu: stored fingerprints; a ring once full, oldest at head
	head    int                   // guarded by mu
	sel     []int32               // guarded by mu: the spare selection buffer
}

func (m *planMemo) get(fp uint64) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[fp]
}

// put stores e under fp and returns the plan to hand out: e's, unless a
// concurrent planner of the same query got there first — then that one, so
// that equal queries keep receiving one plan object.
func (m *planMemo) put(fp uint64, e *memoEntry) *exec.Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[fp]; ok {
		if old.q.Equal(e.q) && slices.Equal(old.stats, e.stats) {
			return old.plan
		}
	} else if len(m.order) < memoCap {
		m.order = append(m.order, fp)
	} else {
		delete(m.entries, m.order[m.head])
		m.order[m.head] = fp
		m.head = (m.head + 1) % memoCap
	}
	if m.entries == nil {
		m.entries = make(map[uint64]*memoEntry)
	}
	m.entries[fp] = e
	return e.plan
}

// swapSel leaves sel as the spare selection buffer and returns the previous
// one: a planner takes the spare with swapSel(nil) and hands its buffer back
// when done (a second planner in between grows its own).
func (m *planMemo) swapSel(sel []int32) []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	sel, m.sel = m.sel, sel
	return sel
}
