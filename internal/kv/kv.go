// Package kv implements the nKV layer of the paper (§2.1): a key-value store
// of named column families, each backed by its own LSM tree (as in
// RocksDB/MyRocks where every DB object and every secondary index is a
// separate column family), plus the shared-state snapshot mechanism that
// ships the physical SST placement map alongside every NDP invocation, so the
// device can process a transactionally consistent snapshot without host
// interaction.
package kv

import (
	"fmt"
	"sort"
	"sync"

	"hybridndp/internal/flash"
	"hybridndp/internal/lsm"
)

// DB is an nKV database instance.
type DB struct {
	mu  sync.RWMutex
	fl  *flash.Flash
	cfg lsm.Config
	cfs map[string]*lsm.Tree // guarded by mu
}

// Open creates a database over the given flash module.
func Open(fl *flash.Flash, cfg lsm.Config) *DB {
	return &DB{fl: fl, cfg: cfg, cfs: make(map[string]*lsm.Tree)}
}

// Flash exposes the underlying flash module (the device simulator reads SSTs
// from it directly).
func (db *DB) Flash() *flash.Flash { return db.fl }

// BlockCacheBytes sizes a block cache as the given fraction of the stored
// dataset (the host's MyRocks block cache under the paper's memory-pressure
// ratio, the device's data-block buffer). Every run starts from a cold cache
// of this size so strategy comparisons are order-independent.
func (db *DB) BlockCacheBytes(fraction float64) int64 {
	return int64(float64(db.fl.Used()) * fraction)
}

// CreateColumnFamily registers a new column family and returns its LSM tree.
func (db *DB) CreateColumnFamily(name string) (*lsm.Tree, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.cfs[name]; ok {
		return nil, fmt.Errorf("kv: column family %q already exists", name)
	}
	tree := lsm.NewTree(db.fl, db.cfg)
	db.cfs[name] = tree
	return tree, nil
}

// CF returns a column family's LSM tree by name.
func (db *DB) CF(name string) (*lsm.Tree, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cf, ok := db.cfs[name]
	if !ok {
		return nil, fmt.Errorf("kv: column family %q does not exist", name)
	}
	return cf, nil
}

// ColumnFamilies lists the registered families in name order.
func (db *DB) ColumnFamilies() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.cfs))
	for n := range db.cfs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot is the shared state of one NDP invocation: a transactionally
// consistent view of every involved DB object, keyed by family name.
type Snapshot struct {
	CFs map[string]*lsm.View
}

// TakeSnapshot captures the shared state for the named column families.
func (db *DB) TakeSnapshot(names []string) (*Snapshot, error) {
	snap := &Snapshot{CFs: make(map[string]*lsm.View, len(names))}
	for _, n := range names {
		cf, err := db.CF(n)
		if err != nil {
			return nil, err
		}
		snap.CFs[n] = cf.View()
	}
	return snap, nil
}

// Bytes estimates the serialized snapshot size, which is charged as NDP
// command payload when the invocation crosses the interconnect. Per family it
// ships the physical placement of its SSTs (the address-mapping information
// that lets the device read the files directly): 64 bytes, 8 per level (C0,
// always empty, C1 and each lower level), and per SST its key range plus 24
// bytes of file, entry count and size.
func (s *Snapshot) Bytes() int64 {
	var n int64
	for _, v := range s.CFs {
		n += 64 + 8
		for _, lvl := range v.Levels() {
			n += 8
			for _, sst := range lvl {
				n += int64(len(sst.MinKey())+len(sst.MaxKey())) + 24
			}
		}
	}
	return n
}
