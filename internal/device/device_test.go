package device_test

import (
	"reflect"
	"sync"
	"testing"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

var (
	dsOnce sync.Once
	ds     *job.Dataset
	dsErr  error
)

func env(t *testing.T) (*job.Dataset, *optimizer.Optimizer) {
	t.Helper()
	dsOnce.Do(func() { ds, dsErr = job.Load(0.01, hw.Cosmos()) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return ds, optimizer.New(ds.Cat, ds.Model)
}

func TestPlanMemoryLimits(t *testing.T) {
	m := hw.Cosmos() // unscaled: 17 MB / 7 MB / 400 MB
	mkPlan := func(tables int, secondary bool) *exec.Plan {
		p := &exec.Plan{Query: nil}
		for i := 1; i < tables; i++ {
			st := exec.JoinStep{Type: exec.BNL}
			if secondary {
				st.Type = exec.BNLI
				st.RightIndex = "idx_x"
			}
			p.Steps = append(p.Steps, st)
		}
		return p
	}
	// Paper §5 allows ≤17 tables without secondary indices per NDP call;
	// with every join using a secondary index (each adding its own 17 MB
	// selection buffer) the ledger caps at 10 — the paper's 12 assumes a
	// mix of indexed and non-indexed joins.
	if mp := device.PlanMemory(m, mkPlan(17, false), 16); !mp.Fits() {
		t.Fatalf("17 tables without secondary indices must fit: %+v", mp)
	}
	if mp := device.PlanMemory(m, mkPlan(18, false), 17); mp.Fits() {
		t.Fatalf("18 tables must not fit: %+v", mp)
	}
	if mp := device.PlanMemory(m, mkPlan(10, true), 9); !mp.Fits() {
		t.Fatalf("10 all-secondary tables must fit: %+v", mp)
	}
	if mp := device.PlanMemory(m, mkPlan(12, true), 11); mp.Fits() {
		t.Fatalf("12 all-secondary tables must not fit: %+v", mp)
	}
}

func TestPlanMemoryPointerFormatSwitch(t *testing.T) {
	m := hw.Cosmos()
	two := &exec.Plan{Steps: []exec.JoinStep{{Type: exec.BNL}}}
	three := &exec.Plan{Steps: []exec.JoinStep{{Type: exec.BNL}, {Type: exec.BNL}}}
	if device.PlanMemory(m, two, 1).UsesPointerFmt {
		t.Fatal("2 tables must use the row cache format (paper §4.2)")
	}
	if !device.PlanMemory(m, three, 2).UsesPointerFmt {
		t.Fatal("3 tables must switch to the pointer cache format")
	}
	// H0 over a wide plan counts every leaf.
	wide := &exec.Plan{Steps: make([]exec.JoinStep, 6)}
	mp := device.PlanMemory(m, wide, 0)
	if mp.Selections != 7 || mp.Joins != 0 {
		t.Fatalf("H0 memory plan: %+v", mp)
	}
}

func TestValidateRejectsOversizedCommands(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	d := newDevice(ds.Model, ds.Cat)
	if err := d.Validate(&device.Command{Plan: p, SplitAfter: len(p.Steps) + 3}); err == nil {
		t.Fatal("split beyond the plan must fail validation")
	}
	if err := d.Validate(&device.Command{Plan: p, SplitAfter: -1}); err == nil {
		t.Fatal("a negative split must fail validation (H0 is split 0)")
	}
	// A crushed budget rejects everything beyond tiny offloads.
	m := ds.Model
	m.DeviceNDPBudget = 1
	tiny := newDevice(m, ds.Cat)
	if err := tiny.Validate(&device.Command{Plan: p, SplitAfter: 2}); err == nil {
		t.Fatal("over-budget command must fail validation")
	}
}

func TestCommandBytesGrowWithPlan(t *testing.T) {
	_, opt := env(t)
	small, err := opt.BuildPlan(job.QueryByName("32b"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := opt.BuildPlan(job.QueryByName("29a"))
	if err != nil {
		t.Fatal(err)
	}
	cs := &device.Command{Plan: small, SplitAfter: 1}
	cb := &device.Command{Plan: big, SplitAfter: 1}
	if cb.Bytes() <= cs.Bytes() {
		t.Fatal("bigger plans must serialize to bigger commands")
	}
}

func TestRunH0EmitsLeavesThenDrivingChunks(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	d := newDevice(ds.Model, ds.Cat)
	cmd := &device.Command{Plan: p, SplitAfter: 0, Chunks: 4}
	mp := device.PlanMemory(ds.Model, p, 0)
	eng := d.Engine(mp)
	hostEng := &exec.Engine{Cat: ds.Cat}
	pl, err := hostEng.StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	var leafBatches, chunkBatches int
	sawChunk := false
	var lastReady vclock.Time
	emit := func(b device.Batch) error {
		if b.Ready < lastReady {
			t.Fatal("batch timestamps must be monotone")
		}
		lastReady = b.Ready
		if b.LeafAlias != "" {
			if sawChunk {
				t.Fatal("leaf batches must precede driving chunks")
			}
			leafBatches++
			if b.Leaf == nil && b.Bytes > 0 {
				t.Fatal("leaf batch without rows")
			}
		} else {
			sawChunk = true
			chunkBatches++
		}
		return nil
	}
	if err := d.Produce(cmd, pl, eng, nil, nil, emit); err != nil {
		t.Fatal(err)
	}
	if leafBatches != len(p.Steps) {
		t.Fatalf("H0 emitted %d leaf batches, want %d", leafBatches, len(p.Steps))
	}
	if chunkBatches == 0 {
		t.Fatal("no driving chunks emitted")
	}
}

func TestRunHkProducesJoinedTuples(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	d := newDevice(ds.Model, ds.Cat)
	split := 2
	cmd := &device.Command{Plan: p, SplitAfter: split, Chunks: 4}
	mp := device.PlanMemory(ds.Model, p, split)
	eng := d.Engine(mp)
	pl, err := (&exec.Engine{Cat: ds.Cat}).StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	emit := func(b device.Batch) error {
		for _, tu := range b.Tuples {
			if len(tu) != split+1 {
				t.Fatalf("tuple spans %d tables, want %d", len(tu), split+1)
			}
		}
		total += len(b.Tuples)
		return nil
	}
	if err := d.Produce(cmd, pl, eng, nil, nil, emit); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("device pipeline produced nothing")
	}
	if d.TL.Now() <= 0 {
		t.Fatal("device work was not charged")
	}
}

func TestWaitSlotBackPressure(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Model
	m.SharedSlots = 1
	d := newDevice(m, ds.Cat)
	split := 1
	cmd := &device.Command{Plan: p, SplitAfter: split, Chunks: 8}
	mp := device.PlanMemory(m, p, split)
	eng := d.Engine(mp)
	pl, err := (&exec.Engine{Cat: ds.Cat}).StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	// The host "fetches" each batch only far in the future, so the single
	// slot forces the device to stall between batches.
	var ready []vclock.Time
	slack := vclock.Time(0)
	emit := func(b device.Batch) error {
		ready = append(ready, b.Ready)
		return nil
	}
	waitSlot := func(j int) (vclock.Time, bool) {
		if j < len(ready) {
			slack += 1e9 // each fetch 1 virtual second after the last
			return ready[j].Add(vclock.Duration(slack)), true
		}
		return 0, false
	}
	if err := d.Produce(cmd, pl, eng, nil, waitSlot, emit); err != nil {
		t.Fatal(err)
	}
	if len(ready) > 1 && d.TL.Account()[hw.CatWaitSlots] <= 0 {
		t.Fatal("device never stalled despite a single occupied slot")
	}
}

// stream flattens one producer run into what the host receives: every leaf
// alias's rows and the driving tuple stream, in arrival order, copied out of
// the engine's scratch.
type stream struct {
	leaves  map[string][]string
	driving []string
}

func (st *stream) emit(b device.Batch) error {
	if b.LeafAlias != "" {
		for _, r := range b.Leaf {
			st.leaves[b.LeafAlias] = append(st.leaves[b.LeafAlias], string(r))
		}
		return nil
	}
	for _, tu := range b.Tuples {
		var flat []byte
		for _, pos := range tu {
			flat = append(flat, byte(len(pos)), byte(len(pos)>>8))
			flat = append(flat, pos...)
		}
		st.driving = append(st.driving, string(flat))
	}
	return nil
}

// TestProducePartitionsConcatenateToWholeRun pins the order property fleet
// byte-identity rests on: the producer run over the range descriptor's
// partitions one after another ships, concatenated, exactly the leaf rows and
// the driving tuple stream of one whole-table run.
func TestProducePartitionsConcatenateToWholeRun(t *testing.T) {
	ds, opt := env(t)
	// 17b drives from company_name, whose qualifying rows spread over all
	// four partitions.
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := fleet.Build(ds.Cat, 4, fleet.SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		plan  *exec.Plan
		split int
	}{{"H0", p.WithBufferedJoins(), 0}, {"H2", p, 2}} {
		run := func(clips []func(int) []device.Range) *stream {
			d := newDevice(ds.Model, ds.Cat)
			cmd := &device.Command{Plan: c.plan, SplitAfter: c.split, Chunks: 4}
			eng := d.Engine(device.PlanMemory(ds.Model, c.plan, c.split))
			pl, err := (&exec.Engine{Cat: ds.Cat}).StartPipeline(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			st := &stream{leaves: map[string][]string{}}
			for _, clip := range clips {
				if err := d.Produce(cmd, pl, eng, clip, nil, st.emit); err != nil {
					t.Fatal(err)
				}
			}
			return st
		}
		whole := run([]func(int) []device.Range{nil})
		var parts []func(int) []device.Range
		for i := 0; i < desc.Devices; i++ {
			parts = append(parts, func(pos int) []device.Range {
				name := c.plan.Driving.Ref.Table
				if pos > 0 {
					name = c.plan.Steps[pos-1].Right.Ref.Table
				}
				part := desc.Parts[name][i]
				return []device.Range{{Lo: part.Lo, Hi: part.Hi}}
			})
		}
		split := run(parts)
		if len(whole.driving) == 0 {
			t.Fatalf("%s: the whole-table run shipped no driving tuples", c.name)
		}
		if !reflect.DeepEqual(split.driving, whole.driving) {
			t.Errorf("%s: partitioned driving stream (%d tuples) differs from the whole run's (%d)",
				c.name, len(split.driving), len(whole.driving))
		}
		if c.split == 0 && len(whole.leaves) != len(p.Steps) {
			t.Errorf("%s: whole run shipped %d leaf selections, want %d", c.name, len(whole.leaves), len(p.Steps))
		}
		if !reflect.DeepEqual(split.leaves, whole.leaves) {
			t.Errorf("%s: partitioned leaf rows differ from the whole run's", c.name)
		}
	}
}

// TestLeafBatchesFeelBackPressure checks that H0 leaf batches count against
// the shared buffer slots like driving chunks do: with one slot and a
// slot-wait that frees it late, the second leaf batch already stalls.
func TestLeafBatchesFeelBackPressure(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	p = p.WithBufferedJoins()
	m := ds.Model
	m.SharedSlots = 1
	d := newDevice(m, ds.Cat)
	cmd := &device.Command{Plan: p, SplitAfter: 0, Chunks: 4}
	eng := d.Engine(device.PlanMemory(m, p, 0))
	pl, err := (&exec.Engine{Cat: ds.Cat}).StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	var ready []vclock.Time
	var leafStall vclock.Duration
	emit := func(b device.Batch) error {
		if b.LeafAlias != "" && len(ready) == 1 {
			leafStall = d.TL.Account()[hw.CatWaitSlots]
		}
		ready = append(ready, b.Ready)
		return nil
	}
	waitSlot := func(j int) (vclock.Time, bool) {
		if j < len(ready) {
			return ready[j].Add(vclock.Second), true // fetched 1 virtual second late
		}
		return 0, false
	}
	if err := d.Produce(cmd, pl, eng, nil, waitSlot, emit); err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) < 2 {
		t.Fatalf("1a has %d joins; the check needs two leaf batches", len(p.Steps))
	}
	if leafStall <= 0 {
		t.Fatal("the second leaf batch did not stall on the single occupied slot")
	}
}

// newDevice builds a fault-free device over cat for model m, as a run's
// bindings do, with a lease of its own.
func newDevice(m hw.Model, cat *table.Catalog) *device.Device {
	b := device.Bindings{Model: &m, Cat: cat, Lease: new(exec.ScratchPool).Lease()}
	return b.Device(nil)
}
