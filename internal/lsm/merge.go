package lsm

import "bytes"

// mergeSource abstracts memtable and SST iterators for the k-way merge.
// Sources are ordered newest (age 0) to oldest; on equal keys the youngest
// source wins, which implements the "most recent version shadows lower
// levels" rule of the LSM read path.
type mergeSource interface {
	valid() bool
	entry() Entry
	next()
	err() error
}

type memSource struct{ it *MemIter }

func (s *memSource) valid() bool  { return s.it.Valid() }
func (s *memSource) entry() Entry { return s.it.Entry() }
func (s *memSource) next()        { s.it.Next() }
func (s *memSource) err() error   { return nil }

type sstSource struct{ it *SSTIter }

func (s *sstSource) valid() bool  { return s.it.Valid() }
func (s *sstSource) entry() Entry { return s.it.Entry() }
func (s *sstSource) next()        { s.it.Next() }
func (s *sstSource) err() error   { return s.it.Err() }

// mergeIter merges k sources with newest-wins deduplication. It maintains a
// binary min-heap ordered by (key, age); each heap comparison is charged to
// the access as an internal-key comparison (paper Table 4: "compare internal
// keys"), batched per Next call.
type mergeIter struct {
	srcs     []mergeSource // heap, indexed
	ages     []int
	ac       Access
	keepTomb bool
	cur      Entry
	curOK    bool
	failed   error
	cmpBytes int64
	cmpCount int
}

func newMergeIter(srcs []mergeSource, ac Access, keepTombstones bool) *mergeIter {
	m := &mergeIter{ac: ac, keepTomb: keepTombstones}
	for age, s := range srcs {
		if s.err() != nil {
			m.failed = s.err()
		}
		if s.valid() {
			m.srcs = append(m.srcs, s)
			m.ages = append(m.ages, age)
		}
	}
	for i := len(m.srcs)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	m.advance()
	return m
}

func (m *mergeIter) less(i, j int) bool {
	a, b := m.srcs[i].entry().Key, m.srcs[j].entry().Key
	c := bytes.Compare(a, b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	m.cmpBytes += int64(n)
	m.cmpCount++
	if c != 0 {
		return c < 0
	}
	return m.ages[i] < m.ages[j] // younger source first on ties
}

func (m *mergeIter) swap(i, j int) {
	m.srcs[i], m.srcs[j] = m.srcs[j], m.srcs[i]
	m.ages[i], m.ages[j] = m.ages[j], m.ages[i]
}

func (m *mergeIter) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(m.srcs) && m.less(l, least) {
			least = l
		}
		if r < len(m.srcs) && m.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		m.swap(i, least)
		i = least
	}
}

// popTopKey pops every source currently positioned on the same key as the
// heap top, returning the youngest version.
func (m *mergeIter) popTopKey() (Entry, bool) {
	if len(m.srcs) == 0 {
		return Entry{}, false
	}
	if len(m.srcs) == 1 {
		// Single-source fast path: keys are strictly increasing within one
		// source, so the dedup loop could only ever pop this one entry. A
		// one-element heap never calls less(), so no comparison charge is
		// skipped here either.
		s := m.srcs[0]
		e := s.entry()
		s.next()
		if s.err() != nil {
			m.failed = s.err()
		}
		if !s.valid() {
			m.srcs = m.srcs[:0]
			m.ages = m.ages[:0]
		}
		return e, true
	}
	top := m.srcs[0].entry()
	key := top.Key
	best := top
	bestAge := m.ages[0]
	for len(m.srcs) > 0 && bytes.Equal(m.srcs[0].entry().Key, key) {
		if m.ages[0] < bestAge {
			best = m.srcs[0].entry()
			bestAge = m.ages[0]
		}
		s := m.srcs[0]
		s.next()
		if s.err() != nil {
			m.failed = s.err()
		}
		if s.valid() {
			m.down(0)
		} else {
			last := len(m.srcs) - 1
			m.swap(0, last)
			m.srcs = m.srcs[:last]
			m.ages = m.ages[:last]
			if len(m.srcs) > 0 {
				m.down(0)
			}
		}
	}
	return best, true
}

// run returns the entries that follow the current one in the current data
// block of the only live source, when that source is an SST: nothing is left
// to merge them with, so they are the merged stream. The slice is the SST's
// decoded block itself (decode memo or block cache, both immutable).
func (m *mergeIter) run() []Entry {
	if len(m.srcs) != 1 || m.failed != nil {
		return nil
	}
	s, ok := m.srcs[0].(*sstSource)
	if !ok {
		return nil
	}
	return s.it.block[s.it.pos:]
}

// consume makes the n-th entry of run() the current one, as n calls of Next
// would when none of the n is a tombstone. The source ends one entry further
// on, so a block's successor is read — charged, fault-injected — when the
// block's last entry becomes current, exactly where entry-wise iteration
// reads it.
func (m *mergeIter) consume(n int) {
	if n > 0 {
		m.srcs[0].(*sstSource).it.pos += n - 1
		m.advance()
	}
}

func (m *mergeIter) advance() {
	for {
		e, ok := m.popTopKey()
		if !ok {
			m.curOK = false
			m.flushCharges()
			return
		}
		if e.Tombstone && !m.keepTomb {
			continue
		}
		m.cur = e
		m.curOK = true
		// Batch comparison charges to keep per-record overhead low; the
		// timeline is sequential within one engine so deferral is safe.
		if m.cmpCount >= 512 {
			m.flushCharges()
		}
		return
	}
}

func (m *mergeIter) flushCharges() {
	if m.ac.Charged() && (m.cmpBytes > 0 || m.cmpCount > 0) {
		m.ac.R.Memcmp(m.ac.TL, m.cmpBytes, m.cmpCount)
	}
	m.cmpBytes = 0
	m.cmpCount = 0
}

// Valid reports whether the iterator holds a current entry.
func (m *mergeIter) Valid() bool { return m.failed == nil && m.curOK }

// Entry returns the current (youngest-version) entry.
func (m *mergeIter) Entry() Entry { return m.cur }

// Next advances past the current key.
func (m *mergeIter) Next() { m.advance() }

// Err reports the first source error.
func (m *mergeIter) Err() error { return m.failed }
