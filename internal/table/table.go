package table

import (
	"fmt"
	"sort"
	"sync"

	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
)

// Table binds a schema to its column families: one for the primary data
// (key = encoded PK, value = fixed-width row) and one per secondary index.
type Table struct {
	Schema  *Schema
	Data    *lsm.Tree
	Indexes map[string]*lsm.Tree // index name → its family's tree

	mu       sync.RWMutex
	rowCount int64  // guarded by mu
	stats    *Stats // guarded by mu
}

// Catalog is the data dictionary: every table of the database.
type Catalog struct {
	mu     sync.RWMutex
	db     *kv.DB
	tables map[string]*Table // guarded by mu
}

// NewCatalog creates an empty catalog over db.
func NewCatalog(db *kv.DB) *Catalog {
	return &Catalog{db: db, tables: make(map[string]*Table)}
}

// DB exposes the underlying nKV instance.
func (c *Catalog) DB() *kv.DB { return c.db }

// CreateTable registers the schema and creates its column families.
func (c *Catalog) CreateTable(s *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[s.Name]; ok {
		return nil, fmt.Errorf("table: %q already exists", s.Name)
	}
	data, err := c.db.CreateColumnFamily("tbl." + s.Name)
	if err != nil {
		return nil, err
	}
	t := &Table{Schema: s, Data: data, Indexes: make(map[string]*lsm.Tree)}
	for _, si := range s.SecondaryIndexes {
		cf, err := c.db.CreateColumnFamily("idx." + s.Name + "." + si.Name)
		if err != nil {
			return nil, err
		}
		t.Indexes[si.Name] = cf
	}
	c.tables[s.Name] = t
	return t, nil
}

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("table: %q does not exist", name)
	}
	return t, nil
}

// Tables lists table names in order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BulkLoad stores rows — fixed-width rows as AppendRow encodes them, back to
// back — in every column family of the table through kv's bulk path
// (lsm.Tree.BulkLoad), the only way rows enter a table. The primary entries'
// values alias rows, and every secondary key is built from the row bytes. It
// inherits the bulk path's refusal of a key repeated within one segment.
func (t *Table) BulkLoad(rows []byte) error {
	s := t.Schema
	rb := s.RowBytes()
	if len(rows)%rb != 0 {
		return fmt.Errorf("table %s: bulk load of %d bytes is not a whole number of %d-byte rows", s.Name, len(rows), rb)
	}
	n := len(rows) / rb
	keyLen := 4 // the longest key any family of the table takes
	for _, si := range s.SecondaryIndexes {
		c, _ := s.ColumnByName(si.Column)
		keyLen = max(keyLen, 1+max(c.Size, 4)+4)
	}
	// One entry slice and one key buffer serve every family in turn: each
	// BulkLoad has copied what it keeps by the time it returns.
	entries := make([]lsm.Entry, n)
	keys := make([]byte, 0, n*keyLen)
	for i := range entries {
		row := rows[i*rb : (i+1)*rb : (i+1)*rb]
		k := len(keys)
		keys = AppendPK(keys, s.rowPK(row))
		entries[i] = lsm.Entry{Key: keys[k:len(keys):len(keys)], Value: row}
	}
	if err := t.Data.BulkLoad(entries); err != nil {
		return err
	}
	for _, si := range s.SecondaryIndexes {
		ci := s.ColumnIndex(si.Column)
		keys = keys[:0]
		for i := range entries {
			k := len(keys)
			keys = s.appendIndexKey(keys, ci, rows[i*rb:(i+1)*rb])
			entries[i] = lsm.Entry{Key: keys[k:len(keys):len(keys)]}
		}
		if err := t.Indexes[si.Name].BulkLoad(entries); err != nil {
			return err
		}
	}
	t.addRows(int64(n))
	return nil
}

// addRows counts stored rows and drops the statistics they make stale.
func (t *Table) addRows(n int64) {
	t.mu.Lock()
	t.rowCount += n
	t.stats = nil
	t.mu.Unlock()
}

// RowCount reports the exact number of inserted rows (the statistics layer
// deliberately works from samples instead).
func (t *Table) RowCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowCount
}

// GetByPK fetches one row by primary key.
func (t *Table) GetByPK(pk int32, ac lsm.Access) (Record, bool, error) {
	v, ok, err := t.Data.Get(EncodePK(pk), ac)
	if err != nil || !ok {
		return Record{}, false, err
	}
	return Record{Schema: t.Schema, Data: v}, true, nil
}

// GetByPKView fetches one row through a frozen read view (update-aware NDP:
// the device resolves records against the invocation's snapshot).
func (t *Table) GetByPKView(v *lsm.View, pk int32, ac lsm.Access) (Record, bool, error) {
	if v == nil {
		return t.GetByPK(pk, ac)
	}
	val, ok, err := v.Get(EncodePK(pk), ac)
	if err != nil || !ok {
		return Record{}, false, err
	}
	return Record{Schema: t.Schema, Data: val}, true, nil
}

// ScanAll iterates the primary index in PK order.
func (t *Table) ScanAll(ac lsm.Access) *lsm.TreeIter {
	return t.Data.Scan(nil, nil, ac)
}

// ScanViewInto restarts it over [lo, hi) of the primary index through a frozen
// view (nil view falls back to the live tree).
func (t *Table) ScanViewInto(it *lsm.TreeIter, v *lsm.View, lo, hi []byte, ac lsm.Access) {
	if v == nil {
		t.Data.ScanInto(it, lo, hi, ac)
		return
	}
	v.ScanInto(it, lo, hi, ac)
}

// SecondaryIndexFor reports the index covering the given column, if any.
func (t *Table) SecondaryIndexFor(col string) (SecondaryIndex, bool) {
	for _, si := range t.Schema.SecondaryIndexes {
		if si.Column == col {
			return si, true
		}
	}
	return SecondaryIndex{}, false
}

// Seeker runs secondary-index seeks in storage it keeps across them: the
// prefix scan's iterator, the prefix and end-key buffers and the primary-key
// list. A warm seeker seeks without allocating. It serves one goroutine at a
// time.
type Seeker struct {
	it     lsm.TreeIter
	prefix []byte
	end    []byte
	pks    []int32
}

// IndexSeek returns the primary keys of t's rows whose column indexed by
// idxName equals v, in index order. The list is the seeker's own: it is valid
// until the seeker's next seek, so a caller that seeks again while walking it
// needs a second seeker.
func (s *Seeker) IndexSeek(t *Table, idxName string, v Value, ac lsm.Access) ([]int32, error) {
	cf, ok := t.Indexes[idxName]
	if !ok {
		return nil, fmt.Errorf("table %s: no index %q", t.Schema.Name, idxName)
	}
	var si *SecondaryIndex
	for i := range t.Schema.SecondaryIndexes {
		if t.Schema.SecondaryIndexes[i].Name == idxName {
			si = &t.Schema.SecondaryIndexes[i]
		}
	}
	if si == nil {
		return nil, fmt.Errorf("table %s: index %q not in schema", t.Schema.Name, idxName)
	}
	prefix, err := t.Schema.AppendSecondaryPrefix(s.prefix[:0], si.Column, v)
	if err != nil {
		return nil, err
	}
	s.prefix = prefix
	s.end = appendPrefixEnd(s.end[:0], prefix)
	pks := s.pks[:0]
	it := &s.it
	cf.ScanInto(it, prefix, s.end, ac)
	for ; it.Valid(); it.Next() {
		pks = append(pks, PKFromSecondaryKey(it.Entry().Key))
		run := it.Run()
		for i := range run {
			pks = append(pks, PKFromSecondaryKey(run[i].Key))
		}
		it.Consume(len(run))
	}
	s.pks = pks
	if err := it.Err(); err != nil {
		return nil, err
	}
	return pks, nil
}

// Clear drops every reference the seeker's iterator holds (see
// lsm.TreeIter.Clear) and keeps its storage.
func (s *Seeker) Clear() { s.it.Clear() }

// Retained reports the bytes of storage the seeker keeps for its next seek.
func (s *Seeker) Retained() int64 {
	return s.it.Retained() + int64(cap(s.prefix)+cap(s.end)) + 4*int64(cap(s.pks))
}

// appendPrefixEnd appends to dst the smallest key greater than every key with
// the prefix and returns it, or returns nil — unbounded — when there is none
// (the prefix is all 0xff).
func appendPrefixEnd(dst, prefix []byte) []byte {
	end := append(dst, prefix...)
	for i := len(end) - 1; i >= len(dst); i-- {
		if end[i] != 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
