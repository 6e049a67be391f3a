package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// loaded is one generated dataset plus what loading it cost, read from
// outside: wall time, allocation, and the storage layers' own counters.
type loaded struct {
	ds       *job.Dataset
	wallS    float64
	rows     int64
	allocKB  float64
	ssts     int
	levels   int
	userB    int64 // Σ lsm.Stats.DataBytes: the bytes the user's rows and index entries occupy
	writtenB int64 // flash.Stats.BytesWritten
	readB    int64 // flash.Stats.BytesRead while loading
}

// loadDataset runs job.LoadSeeded — the whole write path job → table → kv →
// lsm → flash — and collects its counters.
func loadDataset(scale float64, seed int64, rec *recorder) (*loaded, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := rec.begin("job.load")
	t0 := time.Now()
	ds, err := job.LoadSeeded(scale, hw.Cosmos(), seed)
	wall := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("load scale %g seed %d: %w", scale, seed, err)
	}
	runtime.ReadMemStats(&after)
	l := &loaded{ds: ds, wallS: wall.Seconds(), allocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024}
	for _, name := range ds.Cat.Tables() {
		t, err := ds.Cat.Table(name)
		if err != nil {
			return nil, err
		}
		l.rows += t.RowCount()
	}
	for _, name := range ds.DB.ColumnFamilies() {
		cf, err := ds.DB.CF(name)
		if err != nil {
			return nil, err
		}
		st := cf.Stats()
		l.userB += st.DataBytes
		l.ssts += st.SSTs
		l.levels = max(l.levels, st.Levels)
	}
	fs := ds.Flash.Stats()
	l.writtenB, l.readB = fs.BytesWritten, fs.BytesRead
	if l.rows == 0 || l.userB == 0 {
		return nil, fmt.Errorf("load scale %g seed %d: empty dataset", scale, seed)
	}
	return l, nil
}

func (l *loaded) storedPerUserByte() float64 { return float64(l.writtenB) / float64(l.userB) }

// layerMetrics reports the write-path layers of this load.
func (l *loaded) layerMetrics(m values) {
	m.set("job.load_s", l.wallS)
	m.set("job.load_rows_per_s", float64(l.rows)/l.wallS)
	m.set("job.alloc_kb_per_row", l.allocKB/float64(l.rows))
	m.set("lsm.ssts_after_load", float64(l.ssts))
	m.set("lsm.max_levels", float64(l.levels))
	m.set("flash.mb_written", float64(l.writtenB)/1e6)
	m.set("flash.mb_read_during_load", float64(l.readB)/1e6)
}

// hostAccess is a read context like the one a host-native run gets: host
// rates, a cold block cache sized as the model's share of the stored data,
// and a virtual timeline the reads are charged to.
func hostAccess(ds *job.Dataset) lsm.Access {
	cache := int64(float64(ds.Flash.Used()) * ds.Model.HostCacheFraction)
	return lsm.Access{TL: vclock.NewTimeline("bench"), R: hw.HostRates(ds.Model), Cache: lsm.NewBlockCache(cache)}
}

// scanTable reads every row of a table through ac and returns the row count.
func scanTable(t *table.Table, ac lsm.Access) (int64, error) {
	var n int64
	it := t.ScanAll(ac)
	for ; it.Valid(); it.Next() {
		n++
	}
	return n, it.Err()
}

// titleLookups looks n seeded random primary keys of title up through ac and
// returns each lookup's wall time in microseconds and how many found no row.
func titleLookups(ds *job.Dataset, seed int64, n int, ac lsm.Access) (us []float64, misses int, err error) {
	title, err := ds.Cat.Table("title")
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	us = make([]float64, n)
	for i := range us {
		pk := 1 + int32(rng.Int63n(title.RowCount()))
		t0 := time.Now()
		_, ok, err := title.GetByPK(pk, ac)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		if err != nil {
			return nil, 0, fmt.Errorf("title %d: %w", pk, err)
		}
		if !ok {
			misses++
		}
	}
	return us, misses, nil
}

// probeStorage times the read path directly, below exec: a full scan of the
// largest table and point lookups on title, each through a cold host cache.
func probeStorage(ds *job.Dataset, seed int64, gets int, rec *recorder, m values) error {
	ci, err := ds.Cat.Table("cast_info")
	if err != nil {
		return err
	}
	sp := rec.begin("kv.scan")
	t0 := time.Now()
	n, err := scanTable(ci, hostAccess(ds))
	d := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	if n != ci.RowCount() {
		return fmt.Errorf("probe: cast_info scan returned %d of %d rows", n, ci.RowCount())
	}
	m.set("kv.scan_rows_per_s", float64(n)/d.Seconds())

	sp = rec.begin("kv.get")
	us, misses, err := titleLookups(ds, seed, gets, hostAccess(ds))
	rec.end(sp)
	if err != nil {
		return err
	}
	if misses > 0 {
		return fmt.Errorf("probe: %d of %d title lookups found no row", misses, gets)
	}
	m.setSampled("kv.get_us_p50", median(us), gets, 0)
	return nil
}
