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
	Data    *kv.ColumnFamily
	Indexes map[string]*kv.ColumnFamily // index name → CF

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
	t := &Table{Schema: s, Data: data, Indexes: make(map[string]*kv.ColumnFamily)}
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

// Insert encodes and stores one row, maintaining every secondary index.
func (t *Table) Insert(vals []Value) error {
	row, err := t.Schema.EncodeRow(vals)
	if err != nil {
		return err
	}
	rec := Record{Schema: t.Schema, Data: row}
	pk := rec.PK()
	if err := t.Data.Put(EncodePK(pk), row); err != nil {
		return err
	}
	for _, si := range t.Schema.SecondaryIndexes {
		v := rec.GetByName(si.Column)
		key, err := t.Schema.EncodeSecondaryKey(si.Column, v, pk)
		if err != nil {
			return err
		}
		if err := t.Indexes[si.Name].Put(key, nil); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.rowCount++
	t.stats = nil // invalidate
	t.mu.Unlock()
	return nil
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

// ScanView iterates [lo, hi) of the primary index through a frozen view
// (nil view falls back to the live tree).
func (t *Table) ScanView(v *lsm.View, lo, hi []byte, ac lsm.Access) *lsm.TreeIter {
	if v == nil {
		return t.Data.Scan(lo, hi, ac)
	}
	return v.Scan(lo, hi, ac)
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

// IndexSeek returns the primary keys of all rows whose indexed column equals
// v, via a prefix scan over the secondary LSM tree.
func (t *Table) IndexSeek(idxName string, v Value, ac lsm.Access) ([]int32, error) {
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
	prefix, err := t.Schema.SecondaryPrefix(si.Column, v)
	if err != nil {
		return nil, err
	}
	var pks []int32
	end := prefixEnd(prefix)
	it := cf.Scan(prefix, end, ac)
	for ; it.Valid(); it.Next() {
		pks = append(pks, PKFromSecondaryKey(it.Entry().Key))
		run := it.Run()
		for i := range run {
			pks = append(pks, PKFromSecondaryKey(run[i].Key))
		}
		it.Consume(len(run))
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return pks, nil
}

// prefixEnd returns the smallest key greater than every key with the prefix.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil // all 0xff: unbounded
}

// Flush pushes all column families of the table to SSTs.
func (t *Table) Flush() error {
	if err := t.Data.Flush(); err != nil {
		return err
	}
	for _, cf := range t.Indexes {
		if err := cf.Flush(); err != nil {
			return err
		}
	}
	return nil
}
