package coop_test

import (
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

var (
	dsOnce sync.Once
	ds     *job.Dataset
	dsErr  error
)

func env(t *testing.T) (*optimizer.Optimizer, *coop.Executor) {
	t.Helper()
	dsOnce.Do(func() { ds, dsErr = job.Load(0.01, hw.Cosmos()) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return optimizer.New(ds.Cat, ds.Model), coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
}

func TestStrategyStrings(t *testing.T) {
	cases := map[string]coop.Strategy{
		"block":  {Kind: coop.BlockOnly},
		"native": {Kind: coop.HostNative},
		"ndp":    {Kind: coop.NDPOnly},
		"H0":     {Kind: coop.Hybrid, Split: 0},
		"H3":     {Kind: coop.Hybrid, Split: 3},
	}
	for want, s := range cases {
		if s.String() != want {
			t.Errorf("%v renders %q, want %q", s, s.String(), want)
		}
	}
}

// TestParseStrategyRoundTrip pins the one label parser against String: every
// strategy of the widest JOB plan — the host stacks, full NDP and each split
// point H0..Hn — reads back as itself, and labels naming no strategy fail.
func TestParseStrategyRoundTrip(t *testing.T) {
	opt, _ := env(t)
	var widest *exec.Plan
	for _, q := range job.Queries() {
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		if widest == nil || len(p.Steps) > len(widest.Steps) {
			widest = p
		}
	}
	all := append([]coop.Strategy{{Kind: coop.BlockOnly}, {Kind: coop.HostNative}, {Kind: coop.NDPOnly}},
		coop.Splits(widest)...)
	for _, s := range all {
		got, err := coop.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v (split %d), %v; want %v (split %d)", s, got, got.Split, err, s, s.Split)
		}
	}
	for _, bad := range []string{"H-1", "H", "x", "hybrid", "H01", "h2", ""} {
		if s, err := coop.ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) = %v, want an error", bad, s)
		}
	}
}

// TestDecisionStrategy pins the one decision→strategy mapping: both number
// H0 as Split 0.
func TestDecisionStrategy(t *testing.T) {
	cases := []struct {
		name string
		d    optimizer.Decision
		want coop.Strategy
	}{
		{"host", optimizer.Decision{}, coop.Strategy{Kind: coop.HostNative}},
		{"host ignores split", optimizer.Decision{Split: 3}, coop.Strategy{Kind: coop.HostNative}},
		{"ndp", optimizer.Decision{NDP: true}, coop.Strategy{Kind: coop.NDPOnly}},
		{"hybrid H0", optimizer.Decision{Hybrid: true, Split: 0}, coop.Strategy{Kind: coop.Hybrid, Split: 0}},
		{"hybrid H1", optimizer.Decision{Hybrid: true, Split: 1}, coop.Strategy{Kind: coop.Hybrid, Split: 1}},
		{"hybrid H4", optimizer.Decision{Hybrid: true, Split: 4}, coop.Strategy{Kind: coop.Hybrid, Split: 4}},
		{"hybrid wins over ndp", optimizer.Decision{Hybrid: true, NDP: true, Split: 2}, coop.Strategy{Kind: coop.Hybrid, Split: 2}},
	}
	for _, c := range cases {
		if got := coop.DecisionStrategy(&c.d); got != c.want {
			t.Errorf("%s: got %v (split %d), want %v (split %d)", c.name, got, got.Split, c.want, c.want.Split)
		}
	}
}

func TestEveryStrategySameResultRows(t *testing.T) {
	opt, ex := env(t)
	for _, name := range []string{"1a", "4b", "10c", "32b"} {
		q := job.QueryByName(name)
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		strategies := append([]coop.Strategy{{Kind: coop.BlockOnly}, {Kind: coop.HostNative}, {Kind: coop.NDPOnly}},
			coop.Splits(p)...)
		var ref int64 = -1
		for _, st := range strategies {
			rep, err := ex.Run(p, st)
			if err != nil {
				t.Fatalf("%s %v: %v", name, st, err)
			}
			if ref < 0 {
				ref = rep.Result.RowCount
			} else if rep.Result.RowCount != ref {
				t.Fatalf("%s %v: %d rows, reference %d", name, st, rep.Result.RowCount, ref)
			}
		}
	}
}

func TestBlockStackSlowerThanNative(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	blk, err := ex.Run(p, coop.Strategy{Kind: coop.BlockOnly})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := ex.Run(p, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Elapsed <= nat.Elapsed {
		t.Fatalf("BLK (%v) must be slower than native (%v)", blk.Elapsed, nat.Elapsed)
	}
}

func TestHybridTimelineMonotone(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches == 0 || len(rep.Timeline) != rep.Batches {
		t.Fatalf("batches=%d timeline=%d", rep.Batches, len(rep.Timeline))
	}
	var prevFetch vclock.Time
	for _, ev := range rep.Timeline {
		if ev.HostFetched < ev.DeviceReady {
			t.Fatal("host fetched a batch before the device produced it")
		}
		if ev.HostDone < ev.HostFetched {
			t.Fatal("host finished a batch before fetching it")
		}
		if ev.HostFetched < prevFetch {
			t.Fatal("fetches out of order")
		}
		prevFetch = ev.HostFetched
	}
	if vclock.Time(rep.Elapsed) < rep.Timeline[len(rep.Timeline)-1].HostDone {
		t.Fatal("elapsed ends before the last batch completes")
	}
}

func TestHybridRejectsBadSplits(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: len(p.Steps) + 5}); err == nil {
		t.Fatal("oversized split must fail")
	}
	// H0 is Split 0; a negative split names no split point.
	if _, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: -1}); err == nil {
		t.Fatal("split -1 must fail")
	}
	single, err := opt.BuildPlan(job.Listing2(1000, false))
	if err != nil {
		t.Fatal(err)
	}
	single = single.Clone() // the optimizer's plan is shared
	single.Steps = nil      // degenerate: no joins
	if _, err := ex.Run(single, coop.Strategy{Kind: coop.Hybrid, Split: 1}); err == nil {
		t.Fatal("hybrid without joins must fail")
	}
}

func TestNDPOnlyTransfersOnlyResults(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ndp.TransferredBytes >= h0.TransferredBytes {
		t.Fatalf("full NDP ships %d B, H0 ships %d B — NDP must ship less (final result only)",
			ndp.TransferredBytes, h0.TransferredBytes)
	}
	if ndp.DeviceAccount == nil || ndp.HostAccount[hw.CatWaitInitial] <= 0 {
		t.Fatal("NDP-only run missing device account or host wait")
	}
}

func TestHybridAccountsCoherent(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: 0})
	if err != nil {
		t.Fatal(err)
	}
	var hostSum vclock.Duration
	for _, d := range rep.HostAccount {
		hostSum += d
	}
	// Float summation order differs between the timeline and this loop.
	if diff := float64(hostSum - rep.Elapsed); diff > 1 || diff < -1 {
		t.Fatalf("host account sums to %v but elapsed is %v", hostSum, rep.Elapsed)
	}
	if rep.WaitInitial() < 0 || rep.WaitFetch() < 0 || rep.DeviceWaitSlots() < 0 {
		t.Fatal("negative waits")
	}
	if rep.DeviceElapsed <= 0 || rep.Batches == 0 {
		t.Fatalf("device side missing: device elapsed %v, %d batches", rep.DeviceElapsed, rep.Batches)
	}
}

func TestSingleTableNDPOnly(t *testing.T) {
	// A single-table query (no joins) still runs under full NDP: the device
	// scans, filters and aggregates, and only the final result crosses.
	opt, ex := env(t)
	q := job.Listing2(int32(ds.Counts["movie_link"]), false)
	q.Tables = q.Tables[:1] // movie_keyword only
	q.Joins = nil
	q.Output = q.Output[:1]
	delete(q.Filters, "ml")
	q.Name = "single"
	p, err := opt.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ex.Run(p, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	if host.Result.RowCount != ndp.Result.RowCount {
		t.Fatalf("single-table rows differ: %d vs %d", host.Result.RowCount, ndp.Result.RowCount)
	}
	if ndp.TransferredBytes <= 0 {
		t.Fatal("NDP-only must ship the result")
	}
}

func TestHybridH0SeedsEveryInner(t *testing.T) {
	// H0's leaf offloading must seed every join's inner side: the host must
	// not rescan any table (its flash account stays empty apart from the
	// driving-chunk processing it receives pre-filtered).
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.HostAccount[hw.CatFlashLoad]; got > 0 {
		t.Fatalf("H0 host still read %v of flash — a leaf was not seeded", got)
	}
	leaves := 0
	for _, ev := range rep.Timeline {
		_ = ev
		leaves++
	}
	if rep.Batches < len(p.Steps)+1 {
		t.Fatalf("H0 shipped %d batches for %d inners + driving chunks", rep.Batches, len(p.Steps))
	}
}

func TestCacheFormatOverride(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ex.CacheFormat = 0 }()
	ex.CacheFormat = coop.CacheRow
	row, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	ex.CacheFormat = coop.CachePointer
	ptr, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	if row.Result.RowCount != ptr.Result.RowCount {
		t.Fatal("cache format changed the result")
	}
	if ptr.DeviceAccount[hw.CatBufferManage] <= row.DeviceAccount[hw.CatBufferManage] {
		t.Fatal("pointer format must pay more buffer management (dereferencing)")
	}
}
