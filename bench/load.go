package main

import (
	"fmt"
	"runtime"

	"hybridndp/internal/vclock"
)

// seedLoads collects the repeated loads of one seed.
type seedLoads struct {
	first     *loaded // counters of the first load; later loads must reproduce them
	walls     []float64
	virtualMs float64
}

// readBack reads what a load acknowledged through the host read path, both
// ways a query would: a scan of every table, which must return as many rows
// as were inserted, and seeded point lookups on title, which must all hit.
// The reads are charged to a virtual timeline, which gives the load its
// virtual-clock metric: how long the modelled host needs to read back what
// was written.
func readBack(l *loaded, seed int64, gets int, r *result) (virtualMs float64, err error) {
	ac := hostAccess(l.ds)
	for _, name := range l.ds.Cat.Tables() {
		t, err := l.ds.Cat.Table(name)
		if err != nil {
			return 0, err
		}
		n, err := scanTable(t, ac)
		if err != nil {
			return 0, fmt.Errorf("read back %s: %w", name, err)
		}
		if n != t.RowCount() {
			r.fail("read back %s: %d rows, %d were inserted", name, n, t.RowCount())
		}
	}
	ac.Cache = hostAccess(l.ds).Cache // the lookups start cold, as a query would
	_, misses, err := titleLookups(l.ds, seed, gets, ac)
	if err != nil {
		return 0, fmt.Errorf("read back %w", err)
	}
	if misses > 0 {
		r.fail("read back title: %d of %d lookups found no row", misses, gets)
	}
	return vclock.Duration(ac.TL.Now()).Milliseconds(), nil
}

// runLoad measures the write path and nothing else: job → table → kv → lsm →
// flash (memtable insert, flush, SST and Bloom-filter build). It is the same
// storage stack the query workloads only read, so a read-path gain paid for
// at load time shows here. One op is one load of the whole dataset; set-up
// is the same load, so setup_s is the median load. Loads cycle through the
// run's seeds; a seed's wall time is its minimum over its loads.
func runLoad(cfg config, traced bool) (*result, error) {
	r := &result{Scale: cfg.loadScale, Metrics: values{}}
	seeds := cfg.systems
	if traced {
		seeds = 1
	}
	per := make([]seedLoads, seeds)
	var err error
	r.Passes, err = timedLoop(cfg.budget(traced), cfg.minPasses*seeds, func(p int) error {
		runtime.GC() // the previous dataset is garbage; collect it outside the timed load
		s := &per[p%seeds]
		l, err := loadDataset(cfg.loadScale, cfg.systemSeed(p%seeds), nil)
		if err != nil {
			return err
		}
		r.Attempted++
		s.walls = append(s.walls, l.wallS)
		if s.first != nil {
			if f := s.first; l.rows != f.rows || l.userB != f.userB || l.writtenB != f.writtenB || l.ssts != f.ssts {
				r.fail("load %d stored %d rows, %d user bytes, %d flash bytes in %d SSTs; the seed's first load stored %d, %d, %d in %d",
					p, l.rows, l.userB, l.writtenB, l.ssts, f.rows, f.userB, f.writtenB, f.ssts)
			}
			return nil
		}
		if s.virtualMs, err = readBack(l, cfg.systemSeed(p%seeds), cfg.gets, r); err != nil {
			return err
		}
		l.ds = nil // only the counters are kept; the dataset may be collected
		s.first = l
		return nil
	})
	if err != nil {
		return nil, err
	}

	if !traced {
		var samples []sample
		for _, s := range per {
			samples = append(samples, sample{
				setupS: s.walls, stored: s.first.storedPerUserByte(),
				wallMs: []float64{1e3 * minOf(s.walls)}, allocKB: []float64{s.first.allocKB}, virtualMs: []float64{s.virtualMs},
			})
		}
		endToEndMetrics(r.Metrics, samples)
		return r, nil
	}

	// Traced pass: one more load under a span, and the storage probes.
	rec := newRecorder()
	r.trace = rec
	runtime.GC()
	rec.setOp("traced/load")
	l, err := loadDataset(cfg.loadScale, cfg.systemSeed(0), rec)
	if err != nil {
		return nil, err
	}
	r.Attempted++
	m := r.Metrics
	l.layerMetrics(m)
	rec.setOp("probe")
	if err := probeStorage(l.ds, cfg.seed, cfg.gets, rec, m); err != nil {
		return nil, err
	}
	m.set("obs.trace_overhead_pct", 100*(l.wallS/minOf(per[0].walls)-1))
	m.set("bench.pass_wall_s", minOf(per[0].walls))
	m.set("bench.pass_virtual_s", per[0].virtualMs/1e3)
	return r, nil
}
