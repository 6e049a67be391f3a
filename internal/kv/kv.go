// Package kv implements the nKV layer of the paper (§2.1): a key-value store
// of named column families, each backed by its own LSM tree (as in
// RocksDB/MyRocks where every DB object and every secondary index is a
// separate column family), plus the shared-state snapshot mechanism that
// ships un-flushed C0 contents and the physical SST placement map alongside
// every NDP invocation, so the device can process a transactionally
// consistent snapshot without host interaction.
package kv

import (
	"fmt"
	"sort"
	"sync"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
)

// DB is an nKV database instance.
type DB struct {
	mu    sync.RWMutex
	fl    *flash.Flash
	model hw.Model
	cfg   lsm.Config
	cfs   map[string]*ColumnFamily // guarded by mu

	// Durable-mode state (see durable.go).
	durable     bool
	manifestMu  sync.Mutex
	cfManifests map[string]flash.FileID // guarded by manifestMu
}

// Open creates a database over the given flash module.
func Open(fl *flash.Flash, model hw.Model, cfg lsm.Config) *DB {
	return &DB{fl: fl, model: model, cfg: cfg, cfs: make(map[string]*ColumnFamily)}
}

// Flash exposes the underlying flash module (the device simulator reads SSTs
// from it directly).
func (db *DB) Flash() *flash.Flash { return db.fl }

// NewBlockCache builds a cold block cache sized as the given fraction of the
// stored dataset (the host's MyRocks block cache under the paper's
// memory-pressure ratio, the device's data-block buffer). Every run starts
// from a fresh one so strategy comparisons are order-independent.
func (db *DB) NewBlockCache(fraction float64) *lsm.BlockCache {
	return lsm.NewBlockCache(int64(float64(db.fl.Used()) * fraction))
}

// Model reports the hardware model the database was opened with.
func (db *DB) Model() hw.Model { return db.model }

// CreateColumnFamily registers a new column family with its own LSM tree.
// In durable mode the tree logs to a WAL and reports its manifests into the
// database manifest.
func (db *DB) CreateColumnFamily(name string) (*ColumnFamily, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.cfs[name]; ok {
		return nil, fmt.Errorf("kv: column family %q already exists", name)
	}
	cfg := db.cfg
	if db.durable {
		cfg.OnManifest = db.manifestHook(name)
	}
	cf := &ColumnFamily{name: name, tree: lsm.NewTree(db.fl, cfg)}
	db.cfs[name] = cf
	return cf, nil
}

// CF returns a column family by name.
func (db *DB) CF(name string) (*ColumnFamily, error) {
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

// FlushAll flushes every column family's memtables to SSTs.
func (db *DB) FlushAll() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, cf := range db.cfs {
		if err := cf.tree.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ColumnFamily is one logically partitioned key space with its own LSM tree.
type ColumnFamily struct {
	name string
	tree *lsm.Tree
}

// Name reports the family's name.
func (cf *ColumnFamily) Name() string { return cf.name }

// Put stores a key/value pair.
func (cf *ColumnFamily) Put(key, value []byte) error { return cf.tree.Put(key, value) }

// Delete removes a key.
func (cf *ColumnFamily) Delete(key []byte) error { return cf.tree.Delete(key) }

// Get retrieves the value for key, charging the access.
func (cf *ColumnFamily) Get(key []byte, ac lsm.Access) ([]byte, bool, error) {
	return cf.tree.Get(key, ac)
}

// Scan iterates [lo, hi) in key order, charging the access.
func (cf *ColumnFamily) Scan(lo, hi []byte, ac lsm.Access) *lsm.TreeIter {
	return cf.tree.Scan(lo, hi, ac)
}

// Flush forces memtables out to C1.
func (cf *ColumnFamily) Flush() error { return cf.tree.Flush() }

// Sync group-commits pending WAL records (durable mode).
func (cf *ColumnFamily) Sync() error { return cf.tree.Sync() }

// Stats reports LSM statistics for the optimizer.
func (cf *ColumnFamily) Stats() lsm.Stats { return cf.tree.Stats() }

// Placement reports the physical organization (the address-mapping table
// content sent with NDP invocations).
func (cf *ColumnFamily) Placement() []lsm.LevelInfo { return cf.tree.Placement() }

// View returns a frozen, transactionally consistent read view of the family
// (update-aware NDP: what the device reads after an invocation).
func (cf *ColumnFamily) View() *lsm.View { return cf.tree.View() }

// CFSnapshot is the per-object part of the shared state: the un-flushed C0
// contents plus the physical placement of all SSTs of the object, and the
// frozen view the device-side engine reads through.
type CFSnapshot struct {
	Name      string
	MemState  []lsm.Entry
	Placement []lsm.LevelInfo
	View      *lsm.View
}

// Bytes estimates the serialized size of the snapshot part, which is charged
// as NDP command payload when the invocation crosses the interconnect.
func (s CFSnapshot) Bytes() int64 {
	var n int64 = 64
	for _, e := range s.MemState {
		n += int64(len(e.Key)+len(e.Value)) + 3
	}
	for _, li := range s.Placement {
		n += 8
		for _, sst := range li.SSTs {
			n += int64(len(sst.MinKey)+len(sst.MaxKey)) + 24
		}
	}
	return n
}

// Snapshot is the shared state of one NDP invocation: a transactionally
// consistent view of every involved DB object.
type Snapshot struct {
	CFs map[string]CFSnapshot
}

// TakeSnapshot captures the shared state for the named column families.
func (db *DB) TakeSnapshot(names []string) (*Snapshot, error) {
	snap := &Snapshot{CFs: make(map[string]CFSnapshot, len(names))}
	for _, n := range names {
		cf, err := db.CF(n)
		if err != nil {
			return nil, err
		}
		snap.CFs[n] = CFSnapshot{
			Name:      n,
			MemState:  cf.MemContents(),
			Placement: cf.Placement(),
			View:      cf.View(),
		}
	}
	return snap, nil
}

// MemContents exposes the un-flushed C0 state captured by snapshots.
func (cf *ColumnFamily) MemContents() []lsm.Entry { return cf.tree.MemContents() }

// Bytes estimates the serialized snapshot size.
func (s *Snapshot) Bytes() int64 {
	var n int64
	for _, cf := range s.CFs {
		n += cf.Bytes()
	}
	return n
}
