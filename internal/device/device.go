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
	// ErrMemoryBudget signals a command whose memory plan exceeds the NDP
	// DRAM budget.
	ErrMemoryBudget = errors.New("device: NDP memory plan exceeds budget")
	// ErrBadSplit signals a split point outside H0 through the plan's join
	// count.
	ErrBadSplit = errors.New("device: split exceeds join steps")
)

// Command is one NDP invocation: the offloaded partial plan plus everything
// the device needs to execute it without host interaction (paper Fig. 7 A):
// the shared-state snapshot, physical placements, index information and the
// transfer buffer configuration.
type Command struct {
	Plan *exec.Plan
	// SplitAfter is the split point Hk: k ≥ 1 runs the driving table and the
	// first k join steps on device, 0 is H0 — leaf-only offloading, every
	// base-table selection runs on device and all joins remain on the host.
	// len(Plan.Steps) offloads every join.
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
	// Leaf carries an H0 leaf selection: the scan's surviving row views, which
	// the receiver installs as the join's inner side (exec.AppendInner).
	Leaf [][]byte
	Last bool
	// Sum is the payload checksum sealed by the device before the slot is
	// published and verified by the host after the fetch. 0 = unsealed
	// (fault injection disabled): verification is skipped, so fault-free
	// runs pay no checksum cost and stay byte-identical.
	Sum uint64
}

// Rows counts the batch's payload rows: leaf rows or driving tuples.
func (b *Batch) Rows() int {
	if b.LeafAlias != "" {
		return len(b.Leaf)
	}
	return len(b.Tuples)
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
	writeLen(len(b.Leaf))
	for _, r := range b.Leaf {
		writeLen(len(r))
		h.Write(r)
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

// PlanMemory computes the ledger for offloading p up to split point Hk
// (0 = H0: every leaf selection, no join).
func PlanMemory(m hw.Model, p *exec.Plan, k int) MemoryPlan {
	mp := MemoryPlan{BudgetBytes: m.DeviceNDPBudget, Selections: 1 + k, Joins: k}
	if k == 0 {
		mp.Selections = p.NumTables() // H0: all leaves
	}
	for i := 0; i < k && i < len(p.Steps); i++ {
		if p.Steps[i].Type == exec.BNLI && !p.Steps[i].RightIndexIsPK {
			mp.SecondaryIdx++
		}
	}
	mp.SelBytes = int64(mp.Selections+mp.SecondaryIdx) * m.SelBufBytes
	mp.JoinBytes = int64(mp.Joins) * m.JoinBufBytes
	mp.TotalBytes = mp.SelBytes + mp.JoinBytes
	mp.UsesPointerFmt = mp.Selections > 2 // paper §4.2: pointer cache above 2 tables
	return mp
}

// Fits reports whether the ledger stays inside the NDP budget. With the
// paper's numbers this allows at most 12 tables with secondary indices or 17
// without in one NDP call.
func (mp MemoryPlan) Fits() bool { return mp.TotalBytes <= mp.BudgetBytes }

// Bindings are what one run hands every engine and device it builds: the
// hardware model (read-only) and catalog, the lease whose scratches the
// engines work in, the trace receiving spans and the registry receiving
// counters (nil = off). A device is created per run, so the trace needs no
// further synchronization here.
type Bindings struct {
	Model   *hw.Model
	Cat     *table.Catalog
	Lease   *exec.Lease
	Trace   *obs.Trace
	Metrics *obs.Registry
}

// Device is the simulated smart-storage board, carrying its run's bindings:
// device-side spans (leaf scans, driving chunks, explicit slot-stall spans)
// go to Trace, device counters (scan volume, batches, slot stalls) to
// Metrics.
type Device struct {
	Bindings
	// TL is core 1's execution timeline.
	TL *vclock.Timeline
	// Faults, when set, injects crash/stall/corruption faults into this
	// run's batch-emit path and flash read errors into the device engine.
	// Per-run state like Trace: the caller attaches one injector per run.
	Faults *fault.Injector
	// scratch is the working memory of the engine this device builds, taken
	// from the run's lease (nil = the engine makes its own).
	scratch *exec.Scratch
}

// Device builds a fresh device for one attempt or shard of the run, injecting
// inj's faults (nil = none). A retried command gets a new device, so it
// replays its builds and scans instead of resuming half-poisoned state.
func (b *Bindings) Device(inj *fault.Injector) *Device {
	return &Device{Bindings: *b, TL: vclock.NewTimeline("device"), Faults: inj, scratch: b.Lease.Scratch()}
}

// Engine builds the on-device execution engine for one command: device
// rates, bounded buffers, the row/pointer cache format switch, and a small
// cold data-block buffer cache carved out of the temporary-storage
// reservation — the one the engine's scratch keeps.
func (d *Device) Engine(mp MemoryPlan) *exec.Engine {
	sc := d.scratch
	if sc == nil {
		sc = &exec.Scratch{}
	}
	eng := &exec.Engine{
		Cat:          d.Cat,
		TL:           d.TL,
		R:            hw.DeviceRates(*d.Model),
		Cache:        sc.BlockCache(d.Cat.DB().BlockCacheBytes(d.Model.DeviceCacheFraction)),
		JoinBuf:      d.Model.JoinBufBytes,
		PointerCache: mp.UsesPointerFmt,
		Scratch:      sc,
	}
	if d.Faults != nil {
		// Only assign a live injector: a typed-nil interface would defeat
		// the inj != nil fast path in the flash layer.
		eng.Faults = d.Faults
	}
	return eng
}

// Snapshot captures the shared state an NDP command ships: the tables a
// device executing p up to split point Hk reads — the driving table plus the
// first k join steps' inner tables (H0 = every table of the plan).
func Snapshot(db *kv.DB, p *exec.Plan, k int) (*kv.Snapshot, error) {
	limit := len(p.Steps)
	if k > 0 && k < limit {
		limit = k
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
	for name, v := range cmd.Snapshot.CFs {
		eng.Views[strings.TrimPrefix(name, "tbl.")] = v
	}
	bytes := cmd.Bytes()
	sp := d.Trace.Start(hostTL, "ndp.setup").AttrInt("cmd.bytes", bytes)
	hostTL.Charge(hw.CatNDPSetup, hw.HostRates(*d.Model).Interconnect.Transfer(bytes, bytes))
	sp.End()
	sp = d.Trace.Start(d.TL, "device.setup.wait")
	d.TL.WaitUntil(hostTL.Now(), hw.CatNDPSetup)
	sp.End()
	return eng, nil
}

// handOff is the device side of publishing one result set, shared by the
// producer and the NDP-only final result: the injector's per-batch draw — a
// firmware stall charged to the device timeline, a crash that aborts the
// command, corruption sealed into the checksum — then wait (shared-slot
// back-pressure; nil for the final result), then the Ready stamp.
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

// Range is a primary-key partition [Lo, Hi) of one table; a nil bound is
// open.
type Range struct{ Lo, Hi *int32 }

// whole is the clip of a command that ships every table unpartitioned.
var whole = []Range{{}}

// Produce is the device half of the hand-off: it streams the batches of one
// launched NDP command to emit in production order. Under H0 (SplitAfter 0)
// every join step's leaf selection comes first, one batch per range; then the
// driving table's chunks run through the first SplitAfter join steps, each
// range's stream closed by a Last batch. clip(pos) lists the ranges of plan
// position pos (0 = the driving table, si+1 = join step si's inner) this
// device ships — the returned slice is read before the next call — and a nil
// clip ships every table whole.
//
// One batch counter runs across leaf and driving batches. With waitSlot set,
// producing batch j once all shared buffer slots are occupied first consults
// waitSlot(j-slots), the host's fetch completion of the batch in the oldest
// slot, and the device stalls until then (paper §4.1: "the smart storage
// stalls and waits for the host-engine"); without it the device never
// stalls. emit runs synchronously; an error from it (the host rejected the
// batch) or an injected crash aborts the command.
func (d *Device) Produce(cmd *Command, pl *exec.Pipeline, eng *exec.Engine, clip func(pos int) []Range,
	waitSlot func(batch int) (vclock.Time, bool), emit func(Batch) error) error {

	if clip == nil {
		clip = func(int) []Range { return whole }
	}
	slots := d.Model.SharedSlots
	produced := 0
	waitForSlot := func() {
		if waitSlot == nil || produced < slots {
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

	if cmd.SplitAfter == 0 {
		// H0: every leaf selection runs on device and ships as one batch per
		// range; all joins stay on the host.
		for si := range cmd.Plan.Steps {
			for _, rg := range clip(si + 1) {
				b, err := d.scanLeaf(pl, si, eng, rg.Lo, rg.Hi)
				if err != nil {
					return err
				}
				if err := emitBatch(b); err != nil {
					return err
				}
			}
		}
	}
	// Hk: the inner sides of the device joins are built once and probed by
	// every driving chunk streaming through the device join pipeline.
	for _, rg := range clip(0) {
		if err := d.streamDrivingRange(cmd, pl, eng, rg.Lo, rg.Hi, emitBatch); err != nil {
			return err
		}
	}
	d.recordCache(eng)
	return nil
}

// recordCache publishes the device engine's data-block cache outcome once the
// device's share of a run is complete.
func (d *Device) recordCache(eng *exec.Engine) {
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

// scanLeaf runs join step si's leaf selection over [lo, hi) into a not yet
// handed-off leaf batch.
func (d *Device) scanLeaf(pl *exec.Pipeline, si int, eng *exec.Engine, lo, hi *int32) (Batch, error) {
	ap := &pl.Plan.Steps[si].Right
	lsp := d.Trace.Start(d.TL, "device.leaf.scan").Attr("alias", ap.Ref.Alias)
	rows, width, err := eng.ScanAccess(pl, si+1, lo, hi)
	if err != nil {
		lsp.End()
		return Batch{}, err
	}
	lsp.AttrInt("rows", int64(len(rows))).End()
	bytes := int64(len(rows)) * width
	d.recordScan(int64(len(rows)), bytes)
	return Batch{LeafAlias: ap.Ref.Alias, Leaf: rows, Bytes: bytes}, nil
}

// streamDrivingRange partitions the driving table into chunks by primary-key
// ranges, clipped to [loPart, hiPart), and pushes each chunk through the
// command's device join steps (none under H0).
func (d *Device) streamDrivingRange(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	loPart, hiPart *int32, emitBatch func(Batch) error) error {

	t, err := d.Cat.Table(cmd.Plan.Driving.Ref.Table)
	if err != nil {
		return err
	}
	bounds := clipBounds(t.CollectStats().PKQuantiles(cmd.Chunks), loPart, hiPart)
	devSteps := cmd.SplitAfter
	width := pl.TupleWidth(devSteps + 1)
	slot := d.Model.SharedBufferSlot
	// acc is the result set filling the current slot, a list in the run's
	// scratch like the tuples it holds.
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
			acc = pl.AppendTuples(acc, tuples...)
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
		rows, rowWidth, err := eng.ScanAccess(pl, 0, lo, hi)
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

// Validate checks that the command can run on the device at all.
func (d *Device) Validate(cmd *Command) error {
	mp := PlanMemory(*d.Model, cmd.Plan, cmd.SplitAfter)
	if !mp.Fits() {
		return fmt.Errorf("%w: NDP memory plan (%d MB for %d selections, %d secondary, %d joins) exceeds budget (%d MB)",
			ErrMemoryBudget, mp.TotalBytes>>20, mp.Selections, mp.SecondaryIdx, mp.Joins, mp.BudgetBytes>>20)
	}
	if cmd.SplitAfter < 0 || cmd.SplitAfter > len(cmd.Plan.Steps) {
		return fmt.Errorf("%w: split H%d outside H0..H%d", ErrBadSplit, cmd.SplitAfter, len(cmd.Plan.Steps))
	}
	return nil
}
