package hw

import "hybridndp/internal/vclock"

// Cost-account categories. The device-side names follow the operation
// breakdown of paper Table 4.
const (
	CatMemcmp       = "memcmp"
	CatCompareKeys  = "compare internal keys"
	CatSeekIndex    = "seek index block"
	CatSeekData     = "seek data block"
	CatSelection    = "selection processing"
	CatFlashLoad    = "flash load"
	CatMemcpy       = "memcpy"
	CatEval         = "record evaluation"
	CatHashBuild    = "hash build"
	CatHashProbe    = "hash probe"
	CatGroup        = "grouping"
	CatTransfer     = "result transfer"
	CatNDPSetup     = "NDP setup (command)"
	CatWaitInitial  = "wait (initial device exec.)"
	CatWaitFetch    = "wait (further device exec.)"
	CatWaitSlots    = "wait (host fetch / free slot)"
	CatBufferManage = "buffer management"

	// Fault-injection categories (chaos runs only; see internal/fault). All
	// three book zero time on fault-free runs, so profiles stay unchanged.
	CatFaultStall = "fault (device stall)"
	CatFaultWait  = "fault (host wait for failure)"
	CatBackoff    = "fault (retry backoff)"

	// CatHedgeWait floors a hedged shard's host backup at the hedge launch
	// instant (fleet hedging; zero on hedge-free runs).
	CatHedgeWait = "hedge (host backup floor)"
)

// Baseline host-side primitive costs. These are the single calibration point
// of the simulator; every device-side cost is derived from them through the
// measured CoreMark and memcpy ratios of the hardware model, so the *shape*
// of all results depends only on the published ratios.
const (
	hostEvalNsPerTerm   = 40.0  // evaluate one predicate term on one record
	hostHashBuildNsRec  = 60.0  // insert one record into an in-buffer hash table
	hostHashProbeNsRec  = 40.0  // probe one record against a hash table
	hostSeekNsPerLevel  = 120.0 // one binary-search level in an index block
	hostGroupNsRec      = 70.0  // hash-group one record
	hostCompareNsPerKey = 25.0  // fixed per-comparison overhead besides byte memcmp
	hostRowOverheadNs   = 15.0  // per-record pipeline bookkeeping (volcano next())
)

// Rates is the per-primitive virtual cost table of one engine. All execution
// operators price their work exclusively through a Rates value, so host and
// device engines share operator code and differ only in the table they carry.
type Rates struct {
	EvalNsPerTerm   float64 // predicate evaluation per record per term
	MemcmpNsPerByte float64
	MemcpyNsPerByte float64
	HashBuildNsRec  float64
	HashProbeNsRec  float64
	SeekNsPerLevel  float64
	GroupNsRec      float64
	CompareNsPerKey float64
	RowOverheadNs   float64

	FlashNsPerByte float64 // sequential flash streaming
	FlashPageLatNs float64 // fixed per-page latency
	FlashPageBytes int64
	StackOverhead  float64 // multiplier ≥ 1 on the flash path (BLK stack abstraction tax)
	Interconnect   PCIeCost
	OnDevice       bool // true for the device-side table
}

// HostRates derives the host engine's cost table from the hardware model.
func HostRates(m Model) Rates {
	memNs := 1.0 / m.HostMemcpyGBps // GB/s → ns per byte
	return Rates{
		EvalNsPerTerm:   hostEvalNsPerTerm,
		MemcmpNsPerByte: memNs,
		MemcpyNsPerByte: memNs,
		HashBuildNsRec:  hostHashBuildNsRec,
		HashProbeNsRec:  hostHashProbeNsRec,
		SeekNsPerLevel:  hostSeekNsPerLevel,
		GroupNsRec:      hostGroupNsRec,
		CompareNsPerKey: hostCompareNsPerKey,
		RowOverheadNs:   hostRowOverheadNs,

		FlashNsPerByte: 1.0 / m.HostFlashGBps,
		FlashPageLatNs: m.FlashReadLatencyUS * 1000 * 1.2, // host path adds protocol latency
		FlashPageBytes: m.FlashPageBytes,
		StackOverhead:  1.0,
		Interconnect:   CFPCIe(m.PCIeVersion, m.PCIeLanes),
		OnDevice:       false,
	}
}

// BlockStackRates derives the BLK baseline's table: the host table with the
// file-system abstraction tax on the flash path.
func BlockStackRates(m Model) Rates {
	r := HostRates(m)
	r.StackOverhead = 1.0 + m.BlockStackOverheadPct/100.0
	return r
}

// DeviceRates derives the NDP engine's cost table. Record-at-a-time
// primitives scale with the effective device CPU penalty (the data-path
// ratio discounted by the lean-pipeline factor — see Model.DeviceCPUPenalty),
// memory streaming with the memcpy bandwidth ratio, and the flash path uses
// the superior internal bandwidth with no interconnect in the way.
func DeviceRates(m Model) Rates {
	dcr := m.DeviceCPUPenalty()
	memNs := 1.0 / m.DeviceMemcpyGBps
	return Rates{
		EvalNsPerTerm:   hostEvalNsPerTerm * dcr,
		MemcmpNsPerByte: memNs,
		MemcpyNsPerByte: memNs,
		HashBuildNsRec:  hostHashBuildNsRec * dcr,
		HashProbeNsRec:  hostHashProbeNsRec * dcr,
		SeekNsPerLevel:  hostSeekNsPerLevel * dcr,
		GroupNsRec:      hostGroupNsRec * dcr,
		CompareNsPerKey: hostCompareNsPerKey * dcr,
		RowOverheadNs:   hostRowOverheadNs * dcr,

		FlashNsPerByte: 1.0 / m.DeviceFlashGBps,
		FlashPageLatNs: m.FlashReadLatencyUS * 1000,
		FlashPageBytes: m.FlashPageBytes,
		StackOverhead:  1.0,
		Interconnect:   CFPCIe(m.PCIeVersion, m.PCIeLanes),
		OnDevice:       true,
	}
}

// Eval charges evaluating terms predicate terms over n records.
func (r Rates) Eval(tl *vclock.Timeline, n, terms int) {
	if n <= 0 || terms <= 0 {
		return
	}
	tl.Charge(CatEval, vclock.Duration(float64(n)*float64(terms)*r.EvalNsPerTerm))
}

// Memcmp charges comparing n bytes plus the per-comparison overhead for cmp
// individual comparisons.
func (r Rates) Memcmp(tl *vclock.Timeline, bytes int64, cmps int) {
	if bytes > 0 {
		tl.Charge(CatMemcmp, vclock.Duration(float64(bytes)*r.MemcmpNsPerByte))
	}
	if cmps > 0 {
		tl.Charge(CatCompareKeys, vclock.Duration(float64(cmps)*r.CompareNsPerKey))
	}
}

// Memcpy charges copying n bytes.
func (r Rates) Memcpy(tl *vclock.Timeline, bytes int64) {
	if bytes <= 0 {
		return
	}
	tl.Charge(CatMemcpy, vclock.Duration(float64(bytes)*r.MemcpyNsPerByte))
}

// HashBuild charges inserting n records into an in-buffer hash table.
func (r Rates) HashBuild(tl *vclock.Timeline, n int) {
	if n <= 0 {
		return
	}
	tl.Charge(CatHashBuild, vclock.Duration(float64(n)*r.HashBuildNsRec))
}

// HashProbe charges probing n records.
func (r Rates) HashProbe(tl *vclock.Timeline, n int) {
	if n <= 0 {
		return
	}
	tl.Charge(CatHashProbe, vclock.Duration(float64(n)*r.HashProbeNsRec))
}

// SeekIndex charges one sparse-index binary search of the given depth.
func (r Rates) SeekIndex(tl *vclock.Timeline, levels int) {
	if levels <= 0 {
		levels = 1
	}
	tl.Charge(CatSeekIndex, vclock.Duration(float64(levels)*r.SeekNsPerLevel))
}

// SeekData charges locating a record inside a data block.
func (r Rates) SeekData(tl *vclock.Timeline, levels int) {
	if levels <= 0 {
		levels = 1
	}
	tl.Charge(CatSeekData, vclock.Duration(float64(levels)*r.SeekNsPerLevel))
}

// Group charges hash-grouping n records.
func (r Rates) Group(tl *vclock.Timeline, n int) {
	if n <= 0 {
		return
	}
	tl.Charge(CatGroup, vclock.Duration(float64(n)*r.GroupNsRec))
}

// RowOverhead charges the volcano per-record bookkeeping for n records under
// the given category (defaults to selection processing).
func (r Rates) RowOverhead(tl *vclock.Timeline, n int, category string) {
	if n <= 0 {
		return
	}
	if category == "" {
		category = CatSelection
	}
	tl.Charge(category, vclock.Duration(float64(n)*r.RowOverheadNs))
}

// Deref charges pointer-cache dereferencing (paper §4.2): with more than two
// tables the device stores intermediate results as pointers, so every
// produced tuple's positions must be resolved against the underlying caches
// whenever the tuple moves up the pipeline. This is the device's overload
// mechanism on deep offloaded plans — the cost grows with both the
// intermediate cardinality and the pipeline depth.
func (r Rates) Deref(tl *vclock.Timeline, n, positions int, bytes int64) {
	if n <= 0 || positions <= 0 {
		return
	}
	// Each position resolves through the operation hierarchy's cache levels
	// (selection cache → join cache → shared buffer), ~3 hops per pointer.
	d := float64(n)*float64(positions)*3*r.SeekNsPerLevel + float64(bytes)*r.MemcpyNsPerByte
	tl.Charge(CatBufferManage, vclock.Duration(d))
}

// FlashRead charges streaming pages of flash plus per-page latency. Sequential
// streaming amortizes the page latency over the channel pipeline, so only a
// fraction of the nominal latency is charged per page beyond the first.
func (r Rates) FlashRead(tl *vclock.Timeline, bytes int64, randomPages int) {
	if bytes <= 0 && randomPages <= 0 {
		return
	}
	stream := float64(bytes) * r.FlashNsPerByte * r.StackOverhead
	lat := float64(randomPages) * r.FlashPageLatNs * r.StackOverhead
	tl.Charge(CatFlashLoad, vclock.Duration(stream+lat))
}

// Transfer charges moving bytes over the interconnect in blocks.
func (r Rates) Transfer(tl *vclock.Timeline, bytes, blockBytes int64) {
	if bytes <= 0 {
		return
	}
	tl.Charge(CatTransfer, r.Interconnect.Transfer(bytes, blockBytes)*vclock.Duration(r.StackOverhead))
}
