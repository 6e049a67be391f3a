// Package device simulates the COSMOS+ smart-storage board of the paper: a
// management core (core 0) that receives NDP commands and relays result
// buffers, a dedicated execution core (core 1) that runs the offloaded
// partial plan as a volcano pipeline over bounded caches, a DRAM budget
// ledger enforcing the paper's memory reservations, and shared buffer slots
// that create back-pressure between device production and host consumption.
package device

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/obs"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Typed device errors. The crash/corruption sentinels are re-exported from
// internal/fault so recovery code can errors.Is against either package.
var (
	// ErrDeviceCrash is a mid-command device crash (injected).
	ErrDeviceCrash = fault.ErrDeviceCrash
	// ErrCorruptBatch is a result batch whose checksum failed verification.
	ErrCorruptBatch = fault.ErrCorruptBatch
	// ErrDeviceBusy signals that no device can admit the command right now
	// (all NDP command slots taken or every breaker open).
	ErrDeviceBusy = errors.New("device: no NDP command slot available")
	// ErrMemoryBudget signals a command whose memory plan exceeds the NDP
	// DRAM budget.
	ErrMemoryBudget = errors.New("device: NDP memory plan exceeds budget")
	// ErrBadSplit signals a split point past the plan's join count.
	ErrBadSplit = errors.New("device: split exceeds join steps")
)

// Command is one NDP invocation: the offloaded partial plan plus everything
// the device needs to execute it without host interaction (paper Fig. 7 A):
// the shared-state snapshot, physical placements, index information and the
// transfer buffer configuration.
type Command struct {
	Plan *exec.Plan
	// SplitAfter is the number of join steps executed on device. -1 selects
	// leaf-only offloading (H0: every base-table selection runs on device,
	// all joins remain on the host). len(Plan.Steps) offloads every join.
	SplitAfter int
	// Snapshot is the shared state shipped with the invocation.
	Snapshot *kv.Snapshot
	// Chunks partitions the driving table; each chunk yields one
	// intermediate result set placed in a shared buffer slot.
	Chunks int
}

// Bytes estimates the serialized command size (plan description, placement
// map, shared state), charged as PCIe payload during the NDP setup.
func (c *Command) Bytes() int64 {
	var n int64 = 256                    // command header, buffer config
	n += int64(c.Plan.NumTables()) * 128 // per-table descriptor + predicates
	n += int64(len(c.Plan.Steps)) * 64   // join descriptors
	if c.Snapshot != nil {
		n += c.Snapshot.Bytes()
	}
	return n
}

// Batch is one intermediate result set: the tuples of one driving-table
// chunk after the device-side joins, stamped with the device time at which
// the shared buffer slot became ready for pickup.
type Batch struct {
	Tuples []exec.Tuple
	Bytes  int64
	Ready  vclock.Time
	// LeafAlias is set for H0 leaf batches: which table's selection this is.
	LeafAlias string
	// Cols carries an H0 leaf selection as a fully-selected column batch —
	// the cross-interconnect transfer unit the host gather loop feeds straight
	// into SeedInnerCols/AppendInnerCols.
	Cols *exec.ColBatch
	Last bool
	// Sum is the payload checksum sealed by the device before the slot is
	// published and verified by the host after the fetch. 0 = unsealed
	// (fault injection disabled): verification is skipped, so fault-free
	// runs pay no checksum cost and stay byte-identical.
	Sum uint64
}

// corruptMask is the bit pattern injected corruption XORs into a sealed
// checksum — any non-zero mask makes Verify fail.
const corruptMask = 0xdeadbeefcafef00d

// Checksum hashes the batch payload (FNV-1a over tuples/rows with length
// framing). It is a simulation-level integrity check, not charged to any
// timeline: real hardware folds CRC into the DMA engine.
func (b *Batch) Checksum() uint64 {
	h := fnv.New64a()
	var frame [8]byte
	writeLen := func(n int) {
		frame[0] = byte(n)
		frame[1] = byte(n >> 8)
		frame[2] = byte(n >> 16)
		frame[3] = byte(n >> 24)
		h.Write(frame[:4])
	}
	writeLen(len(b.Tuples))
	for _, t := range b.Tuples {
		writeLen(len(t))
		for _, pos := range t {
			writeLen(len(pos))
			h.Write(pos)
		}
	}
	// Leaf payload: the column batch's selected rows in selection order —
	// the same bytes, in the same framing, as the row-slice payload this
	// checksum originally covered, so sealed sums are unchanged.
	if b.Cols != nil {
		writeLen(b.Cols.Len())
		for _, i := range b.Cols.Sel {
			r := b.Cols.Rows[i]
			writeLen(len(r))
			h.Write(r)
		}
	} else {
		writeLen(0)
	}
	h.Write([]byte(b.LeafAlias))
	sum := h.Sum64()
	if sum == 0 {
		sum = 1 // 0 is reserved for "unsealed"
	}
	return sum
}

// Seal stamps the batch with its checksum; corrupt simulates device-side
// payload corruption by sealing a flipped sum.
func (b *Batch) Seal(corrupt bool) {
	b.Sum = b.Checksum()
	if corrupt {
		b.Sum ^= corruptMask
	}
}

// CorruptInTransfer simulates interconnect corruption during the host fetch
// of a sealed batch (no-op on unsealed batches).
func (b *Batch) CorruptInTransfer() {
	if b.Sum != 0 {
		b.Sum ^= corruptMask
	}
}

// Verify re-hashes the payload against the sealed checksum. Unsealed batches
// (Sum 0, faults disabled) pass unconditionally.
func (b *Batch) Verify() error {
	if b.Sum == 0 {
		return nil
	}
	if got := b.Checksum(); got != b.Sum {
		return fmt.Errorf("device: checksum %#x != sealed %#x: %w", got, b.Sum, ErrCorruptBatch)
	}
	return nil
}

// MemoryPlan is the device DRAM ledger for one command (paper §5 memory
// reservations: 17 MB per selection via an index, 7 MB per join, within the
// ~400 MB NDP budget).
type MemoryPlan struct {
	Selections     int
	SecondaryIdx   int
	Joins          int
	SelBytes       int64
	JoinBytes      int64
	TotalBytes     int64
	BudgetBytes    int64
	UsesPointerFmt bool
}

// PlanMemory computes the ledger for offloading the given prefix.
func PlanMemory(m hw.Model, p *exec.Plan, splitAfter int) MemoryPlan {
	mp := MemoryPlan{BudgetBytes: m.DeviceNDPBudget}
	nTables := 1
	if splitAfter < 0 {
		nTables = p.NumTables() // H0: all leaves
	} else {
		nTables = 1 + splitAfter
	}
	mp.Selections = nTables
	if splitAfter > 0 {
		mp.Joins = splitAfter
	}
	for i := 0; i < splitAfter && i < len(p.Steps); i++ {
		if p.Steps[i].Type == exec.BNLI && !p.Steps[i].RightIndexIsPK {
			mp.SecondaryIdx++
		}
	}
	mp.SelBytes = int64(mp.Selections+mp.SecondaryIdx) * m.SelBufBytes
	mp.JoinBytes = int64(mp.Joins) * m.JoinBufBytes
	mp.TotalBytes = mp.SelBytes + mp.JoinBytes
	mp.UsesPointerFmt = nTables > 2 // paper §4.2: pointer cache above 2 tables
	return mp
}

// Fits reports whether the ledger stays inside the NDP budget. With the
// paper's numbers this allows at most 12 tables with secondary indices or 17
// without in one NDP call.
func (mp MemoryPlan) Fits() bool { return mp.TotalBytes <= mp.BudgetBytes }

// Device is the simulated smart-storage board.
type Device struct {
	Model hw.Model
	Cat   *table.Catalog
	// TL is core 1's execution timeline.
	TL *vclock.Timeline
	// Trace receives device-side spans (leaf scans, driving chunks, explicit
	// slot-stall spans). Nil disables tracing. A device is created per run, so
	// the trace needs no further synchronization here.
	Trace *obs.Trace
	// Metrics receives device counters (scan volume, batches, slot stalls).
	// Nil disables them.
	Metrics *obs.Registry
	// Faults, when set, injects crash/stall/corruption faults into this
	// run's batch-emit path and flash read errors into the device engine.
	// Per-run state like Trace: the caller attaches one injector per run.
	Faults *fault.Injector
	// BatchSize is the columnar batch row capacity of the engines this device
	// builds (0 = exec.DefaultBatchSize); charges are byte-identical at every
	// size.
	BatchSize int
	// Scratch is the working memory of the engine this device builds, taken
	// from the run's lease (nil = the engine makes its own).
	Scratch *exec.Scratch
}

// New creates a device bound to the catalog (whose flash it reads directly).
func New(m hw.Model, cat *table.Catalog) *Device {
	return &Device{Model: m, Cat: cat, TL: vclock.NewTimeline("device")}
}

// Engine builds the on-device execution engine for one command: device
// rates, bounded buffers, the row/pointer cache format switch, and a small
// data-block buffer cache carved out of the temporary-storage reservation.
func (d *Device) Engine(mp MemoryPlan) *exec.Engine {
	eng := &exec.Engine{
		Cat:          d.Cat,
		TL:           d.TL,
		R:            hw.DeviceRates(d.Model),
		Cache:        d.Cat.DB().NewBlockCache(d.Model.DeviceCacheFraction),
		JoinBuf:      d.Model.JoinBufBytes,
		SelBuf:       d.Model.SelBufBytes,
		PointerCache: mp.UsesPointerFmt,
		BatchSize:    d.BatchSize,
		Scratch:      d.Scratch,
	}
	if d.Faults != nil {
		// Only assign a live injector: a typed-nil interface would defeat
		// the inj != nil fast path in the flash layer.
		eng.Faults = d.Faults
	}
	return eng
}

// Snapshot captures the shared state an NDP command ships: the tables a
// device executing the first split join steps of p reads — the driving table
// plus those steps' inner tables (split < 0 = every table of the plan).
func Snapshot(db *kv.DB, p *exec.Plan, split int) (*kv.Snapshot, error) {
	limit := len(p.Steps)
	if split >= 0 && split < limit {
		limit = split
	}
	names := []string{"tbl." + p.Driving.Ref.Table}
	for i := 0; i < limit; i++ {
		names = append(names, "tbl."+p.Steps[i].Right.Ref.Table)
	}
	return db.TakeSnapshot(names)
}

// DrivingChunks sizes the driving-table partitioning of a command so a
// chunk's result set lands near the shared-buffer slot size.
func DrivingChunks(m hw.Model, cat *table.Catalog, p *exec.Plan) int {
	t, err := cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return 8
	}
	c := int(float64(t.CollectStats().TotalBytes()) / float64(4*m.SharedBufferSlot))
	if c < 4 {
		c = 4
	}
	if c > 64 {
		c = 64
	}
	return c
}

// Launch performs the NDP invocation of cmd on this device (paper Fig. 7 A),
// the one entry every device-backed run — NDP-only, cooperative, fleet shard
// — goes through: the command is validated against the DRAM budget, the
// on-device engine is built over the snapshot's frozen views (update-aware
// NDP: host writes issued after the invocation stay invisible on device), the
// command's PCIe crossing is charged to the host timeline, and the device
// timeline starts when the command has arrived.
func (d *Device) Launch(cmd *Command, mp MemoryPlan, hostTL *vclock.Timeline) (*exec.Engine, error) {
	if err := d.Validate(cmd); err != nil {
		return nil, err
	}
	eng := d.Engine(mp)
	eng.Views = make(map[string]*lsm.View, len(cmd.Snapshot.CFs))
	for name, cf := range cmd.Snapshot.CFs {
		eng.Views[strings.TrimPrefix(name, "tbl.")] = cf.View
	}
	bytes := cmd.Bytes()
	sp := d.Trace.Start(hostTL, "ndp.setup").AttrInt("cmd.bytes", bytes)
	hostTL.Charge(hw.CatNDPSetup, hw.HostRates(d.Model).Interconnect.Transfer(bytes, bytes))
	sp.End()
	sp = d.Trace.Start(d.TL, "device.setup.wait")
	d.TL.WaitUntil(hostTL.Now(), hw.CatNDPSetup)
	sp.End()
	return eng, nil
}

// handOff is the device side of publishing one result set, shared by every
// producer (cooperative batches, fleet shard batches, leaf partitions, the
// NDP-only final result): the injector's per-batch draw — a firmware stall
// charged to the device timeline, a crash that aborts the command, corruption
// sealed into the checksum — then wait (shared-slot back-pressure; nil where
// the host merges freely), then the Ready stamp.
func (d *Device) handOff(b *Batch, what string, wait func()) error {
	if d.Faults != nil {
		ev := d.Faults.BeforeEmit()
		if ev.Stall > 0 {
			d.TL.Charge(hw.CatFaultStall, ev.Stall)
		}
		if ev.Crash != nil {
			return fmt.Errorf("device: %s: %w", what, ev.Crash)
		}
		b.Seal(ev.Corrupt)
	}
	if wait != nil {
		wait()
	}
	b.Ready = d.TL.Now()
	d.Metrics.Counter("device.batches").Inc()
	return nil
}

// RunPlan executes the complete plan on device (NDP-only). The final result
// ships as one batch, so it faces the injector's per-batch draw like any
// other hand-off.
func (d *Device) RunPlan(eng *exec.Engine, p *exec.Plan) (*exec.Result, error) {
	sp := d.Trace.Start(d.TL, "device.plan")
	defer sp.End()
	res, err := eng.RunPlan(p)
	if err != nil {
		return nil, err
	}
	var final Batch
	if err := d.handOff(&final, "final result", nil); err != nil {
		return nil, err
	}
	return res, nil
}

// Run executes the command's device part, calling emit for every produced
// batch. waitSlot is consulted before producing batch j once all shared
// buffer slots are occupied: it returns the host fetch-completion time of
// batch j-slots, and the device stalls until then (paper §4.1: "the smart
// storage stalls and waits for the host-engine"). Both callbacks run
// synchronously; batches are emitted in production order. A non-nil error
// from emit aborts the run (the host rejected the batch); with d.Faults set,
// an injected crash aborts before the batch is emitted.
func (d *Device) Run(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	emit func(Batch) error, waitSlot func(batchIdx int) (vclock.Time, bool)) error {

	slots := d.Model.SharedSlots
	produced := 0
	waitForSlot := func() {
		if produced < slots {
			return
		}
		if t, ok := waitSlot(produced - slots); ok {
			// All shared buffer slots are occupied: the device stalls until
			// the host has drained the oldest one. The span makes the
			// back-pressure visible as an explicit region on the device track.
			ssp := d.Trace.Start(d.TL, "device.wait.slot").AttrInt("batch", int64(produced))
			stall := d.TL.WaitUntil(t, hw.CatWaitSlots)
			ssp.Attr("stall", stall.String()).End()
			d.Metrics.Counter("device.slot.stalls").Inc()
		}
	}
	emitBatch := func(b Batch) error {
		if err := d.handOff(&b, "batch", waitForSlot); err != nil {
			return err
		}
		if err := emit(b); err != nil {
			return err
		}
		produced++
		return nil
	}

	devSteps := cmd.SplitAfter
	if devSteps < 0 {
		// H0: run every leaf selection on device. Inner tables ship as one
		// batch each; the driving table streams in chunks.
		for _, st := range cmd.Plan.Steps {
			b, err := d.scanLeaf(st.Right, eng, nil, nil)
			if err != nil {
				return err
			}
			if err := emitBatch(b); err != nil {
				return err
			}
		}
		devSteps = 0
	}
	// Hk: the inner sides of the device joins are built once and probed by
	// every driving chunk streaming through the device join pipeline.
	if err := d.streamDrivingRange(cmd, pl, eng, devSteps, nil, nil, emitBatch); err != nil {
		return err
	}
	d.RecordCache(eng)
	return nil
}

// RecordCache publishes the device engine's data-block cache outcome once the
// device's share of a run is complete.
func (d *Device) RecordCache(eng *exec.Engine) {
	if d.Metrics == nil || eng.Cache == nil {
		return
	}
	hits, misses, _ := eng.Cache.Stats()
	d.Metrics.Counter("device.cache.hits").Add(hits)
	d.Metrics.Counter("device.cache.misses").Add(misses)
	h := d.Metrics.Counter("device.cache.hits").Value()
	if n := h + d.Metrics.Counter("device.cache.misses").Value(); n > 0 {
		d.Metrics.Gauge("device.cache.hitrate").Set(float64(h) / float64(n))
	}
}

// recordScan books device scan volume: rows and bytes read compaction-free
// from the frozen snapshot views (the NDP premise — this volume never crosses
// the interconnect).
func (d *Device) recordScan(rows, bytes int64) {
	d.Metrics.Counter("device.scan.rows").Add(rows)
	d.Metrics.Counter("device.scan.bytes").Add(bytes)
}

// RunShard streams the driving-table partition [lo, hi) through the first
// cmd.SplitAfter join steps (0 or -1 = scan-only: the shard ships filtered
// driving rows and every join stays on the host). It carries no H0 leaf logic
// — fleet execution scans each inner table's partitions through
// ScanLeafPartition on the owning device — and emit may reject a batch with
// an error. Shared-slot back-pressure is not applied: the host merges batches
// from the whole fleet in partition order, so the host side is the
// bottleneck. An injected crash degrades the whole shard at the fleet layer
// instead of retrying.
func (d *Device) RunShard(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	lo, hi *int32, emit func(Batch) error) error {

	devSteps := cmd.SplitAfter
	if devSteps < 0 {
		devSteps = 0
	}
	return d.streamDrivingRange(cmd, pl, eng, devSteps, lo, hi, func(b Batch) error {
		if err := d.handOff(&b, "shard batch", nil); err != nil {
			return err
		}
		return emit(b)
	})
}

// ScanLeafPartition scans one inner table's partition [lo, hi) on this device
// (fleet H0: every device ships its share of every leaf selection) and
// returns it as a leaf batch stamped with the device completion time.
func (d *Device) ScanLeafPartition(ap exec.AccessPath, eng *exec.Engine, lo, hi *int32) (Batch, error) {
	b, err := d.scanLeaf(ap, eng, lo, hi)
	if err != nil {
		return Batch{}, err
	}
	if err := d.handOff(&b, "leaf scan", nil); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// scanLeaf runs one leaf selection over [lo, hi) into a not yet handed-off
// leaf batch.
func (d *Device) scanLeaf(ap exec.AccessPath, eng *exec.Engine, lo, hi *int32) (Batch, error) {
	lsp := d.Trace.Start(d.TL, "device.leaf.scan").Attr("alias", ap.Ref.Alias)
	cb, width, err := eng.ScanCols(ap, lo, hi)
	if err != nil {
		lsp.End()
		return Batch{}, err
	}
	lsp.AttrInt("rows", int64(cb.Len())).End()
	bytes := int64(cb.Len()) * width
	d.recordScan(int64(cb.Len()), bytes)
	return Batch{LeafAlias: ap.Ref.Alias, Cols: cb, Bytes: bytes}, nil
}

// streamDrivingRange partitions the driving table into chunks by primary-key
// ranges, clipped to [loPart, hiPart), and pushes each chunk through the
// first devSteps join steps.
func (d *Device) streamDrivingRange(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	devSteps int, loPart, hiPart *int32, emitBatch func(Batch) error) error {

	p := cmd.Plan
	bounds, err := d.chunkBounds(p.Driving.Ref.Table, cmd.Chunks)
	if err != nil {
		return err
	}
	bounds = clipBounds(bounds, loPart, hiPart)
	width := pl.TupleWidth(devSteps + 1)
	slot := d.Model.SharedBufferSlot
	var acc []exec.Tuple
	var accBytes int64
	flush := func(last bool) error {
		if len(acc) == 0 && !last {
			// An empty intermediate result set occupies no buffer slot and
			// is not transferred.
			return nil
		}
		err := emitBatch(Batch{Tuples: acc, Bytes: accBytes, Last: last})
		acc = nil
		accBytes = 0
		return err
	}
	// The chunk's rows stream through the device joins in bounded pieces
	// (the volcano pipeline over per-operation caches of paper Fig. 8): each
	// operation hands over once its cache holds a piece, so result sets fill
	// shared-buffer slots incrementally with honest per-piece timestamps.
	const pieceRows = 256
	var runFrom func(si int, tuples []exec.Tuple) error
	runFrom = func(si int, tuples []exec.Tuple) error {
		if len(tuples) == 0 {
			return nil
		}
		if si >= devSteps {
			acc = append(acc, tuples...)
			accBytes += int64(len(tuples)) * width
			if accBytes >= slot {
				return flush(false)
			}
			return nil
		}
		for off := 0; off < len(tuples); off += pieceRows {
			end := off + pieceRows
			if end > len(tuples) {
				end = len(tuples)
			}
			out, err := eng.JoinStep(pl, si, tuples[off:end])
			if err != nil {
				return err
			}
			if err := runFrom(si+1, out); err != nil {
				return err
			}
		}
		return nil
	}
	for ci := 0; ci+1 < len(bounds); ci++ {
		lo, hi := bounds[ci], bounds[ci+1]
		csp := d.Trace.Start(d.TL, "device.chunk").AttrInt("chunk", int64(ci))
		rows, rowWidth, err := eng.ScanAccess(p.Driving, lo, hi)
		if err != nil {
			csp.End()
			return err
		}
		d.recordScan(int64(len(rows)), int64(len(rows))*rowWidth)
		csp.AttrInt("rows", int64(len(rows)))
		group := len(rows)/8 + 1
		if group > pieceRows {
			group = pieceRows
		}
		for off := 0; off < len(rows); off += group {
			end := off + group
			if end > len(rows) {
				end = len(rows)
			}
			tuples := pl.MakeTuples(rows[off:end])
			if err := runFrom(0, tuples); err != nil {
				csp.End()
				return err
			}
		}
		csp.End()
	}
	return flush(true)
}

// chunkBounds derives n chunk boundaries from the primary-key quantiles of
// the table's statistics sample. The first and last bounds are open.
func (d *Device) chunkBounds(tableName string, n int) ([]*int32, error) {
	if n < 1 {
		n = 1
	}
	t, err := d.Cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	st := t.CollectStats()
	bounds := make([]*int32, 0, n+1)
	bounds = append(bounds, nil)
	if len(st.Sample) >= 2 && n > 1 {
		pks := make([]int32, 0, len(st.Sample))
		for _, r := range st.Sample {
			pks = append(pks, r.PK())
		}
		sortInt32(pks)
		for i := 1; i < n; i++ {
			q := pks[i*len(pks)/n]
			// Boundaries must be strictly increasing.
			if last := bounds[len(bounds)-1]; last == nil || q > *last {
				v := q
				bounds = append(bounds, &v)
			}
		}
	}
	bounds = append(bounds, nil)
	return bounds, nil
}

// clipBounds restricts chunk boundaries to the partition [lo, hi).
func clipBounds(bounds []*int32, lo, hi *int32) []*int32 {
	out := []*int32{lo}
	for _, b := range bounds[1 : len(bounds)-1] {
		if b == nil {
			continue
		}
		if lo != nil && *b <= *lo {
			continue
		}
		if hi != nil && *b >= *hi {
			continue
		}
		out = append(out, b)
	}
	return append(out, hi)
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Validate checks that the command can run on the device at all.
func (d *Device) Validate(cmd *Command) error {
	mp := PlanMemory(d.Model, cmd.Plan, cmd.SplitAfter)
	if !mp.Fits() {
		return fmt.Errorf("%w: NDP memory plan (%d MB for %d selections, %d secondary, %d joins) exceeds budget (%d MB)",
			ErrMemoryBudget, mp.TotalBytes>>20, mp.Selections, mp.SecondaryIdx, mp.Joins, mp.BudgetBytes>>20)
	}
	if cmd.SplitAfter > len(cmd.Plan.Steps) {
		return fmt.Errorf("%w: split after %d exceeds %d join steps", ErrBadSplit, cmd.SplitAfter, len(cmd.Plan.Steps))
	}
	return nil
}

// ResultWidthCols reports a human label for batches (debugging aid).
func ResultWidthCols(p *exec.Plan, devSteps int) []string {
	aliases := p.Aliases()
	if devSteps < 0 {
		return aliases[:1]
	}
	return aliases[:devSteps+1]
}
