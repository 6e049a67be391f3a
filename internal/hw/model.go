// Package hw implements the abstract hardware model of hybridNDP (paper §3.1,
// Table 2): flash, CPU, memory and interconnect characteristics of the host
// and the smart-storage device, the PCIe cost function cf_pcie, the profiler
// micro-benchmark that fills the parameter set, and the per-primitive rate
// tables the execution engines charge virtual time against.
package hw

import (
	"fmt"
	"math"
)

// Model is the abstract hardware model of paper Table 2. One Model describes
// the whole host+device pair; host_* and device_* prefixed fields correspond
// to the host_hw / ndp_hw parameter split of the paper.
type Model struct {
	// FLASH
	DeviceFlashClockMHz float64 // ndp_hw_FCF: flash interface clock as seen on device
	HostFlashClockMHz   float64 // host_hw_FCF: effective flash clock as seen from host
	FlashWeight         float64 // hw_FSW: flash weighting for the hybrid-index calculation

	// CPU
	HostMemcpyGBps    float64 // hw_CME (host side): sustained memcpy bandwidth
	DeviceMemcpyGBps  float64 // hw_CME (device side)
	HostCPUClockMHz   float64 // hw_CCF host
	DeviceCPUClockMHz float64 // hw_CCF device
	HostCores         int     // hw_CCN host
	DeviceCores       int     // hw_CCN device (cores usable in total; 1 is NDP-dedicated)
	HostCoreMark      float64 // CoreMark it/s, host (calibration, paper: 92343)
	DeviceCoreMark    float64 // CoreMark it/s, single NDP ARM core (paper: 2964)

	// MEMORY
	HostMemBytes     int64   // hw_MSH: host memory size
	DeviceMemBytes   int64   // total device DRAM (paper: 1 GB)
	SelBufBytes      int64   // hw_MSS: reservation per selection (paper: 17 MB); sizes memory plans only
	JoinBufBytes     int64   // hw_MSJ: on-device buffer per join (paper: 7 MB); also bounds BNL passes
	DeviceMemWeight  float64 // ndp_hw_MSW: memory weighting for hybrid-index calculation
	DeviceNDPBudget  int64   // usable NDP buffer memory after reservations (paper: ~400 MB)
	SharedBufferSlot int64   // size of one shared result-buffer slot
	SharedSlots      int     // number of shared result-buffer slots

	// INTERCONNECT
	PCIeLanes   int // hw_IPL
	PCIeVersion int // hw_IPV

	// FLASH GEOMETRY
	FlashPageBytes     int64   // flash page size
	DeviceFlashGBps    float64 // internal (on-device) sequential flash bandwidth
	HostFlashGBps      float64 // external effective flash bandwidth incl. protocol
	FlashReadLatencyUS float64 // per-page read latency, device side
	// BlockStackOverheadPct is the extra host path overhead of the BLK (ext4
	// over a block FTL) stack, in percent. It is a modelling constant, not a
	// measurement: what checks it is Fig. 11's ordering, BLK slower than
	// NATIVE on every query (1.10–1.13× in EXPERIMENTS.md's Exp 1 table).
	BlockStackOverheadPct float64

	// CACHES — sized as fractions of the stored dataset so the paper's
	// memory-pressure ratios (16 GB data vs 4 GB host RAM; 520 MB device
	// temporary storage) hold at any generator scale.
	HostCacheFraction   float64 // host block cache, as in MyRocks/RocksDB
	DeviceCacheFraction float64 // on-device data-block buffer share
}

const (
	// KB, MB, GB in bytes.
	KB = int64(1) << 10
	MB = int64(1) << 20
	GB = int64(1) << 30
)

// Cosmos returns the hardware model of the paper's experimental platform: a
// 4-core 3.4 GHz i5 host with 4 GB RAM against a COSMOS+ board (2×ARM A9
// @667 MHz, 1 GB DRAM, PCIe 2.0 x8, MLC-in-SLC-mode flash). The CoreMark
// scores are the paper's measured values.
func Cosmos() Model {
	return Model{
		// The FCF pair feeds the split_cpu ratio (eq. 9): the effective
		// clock at which each side chews through flash-resident data.
		DeviceFlashClockMHz: 100,
		HostFlashClockMHz:   250,
		FlashWeight:         1.0,

		HostMemcpyGBps:    10.0,
		DeviceMemcpyGBps:  1.6,
		HostCPUClockMHz:   3400,
		DeviceCPUClockMHz: 667,
		HostCores:         4,
		DeviceCores:       2,
		HostCoreMark:      92343,
		DeviceCoreMark:    2964,

		HostMemBytes:     4 * GB,
		DeviceMemBytes:   1 * GB,
		SelBufBytes:      17 * MB,
		JoinBufBytes:     7 * MB,
		DeviceMemWeight:  1.0,
		DeviceNDPBudget:  410 * MB,
		SharedBufferSlot: 512 * KB,
		SharedSlots:      4,

		PCIeLanes:   8,
		PCIeVersion: 2,

		FlashPageBytes:        16 * KB,
		DeviceFlashGBps:       3.2,
		HostFlashGBps:         0.6,
		FlashReadLatencyUS:    60,
		BlockStackOverheadPct: 25,

		HostCacheFraction:   0.25,
		DeviceCacheFraction: 0.03,
	}
}

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
	switch {
	case m.HostCoreMark <= 0 || m.DeviceCoreMark <= 0:
		return fmt.Errorf("hw: CoreMark scores must be positive (host=%v device=%v)", m.HostCoreMark, m.DeviceCoreMark)
	case m.PCIeLanes <= 0:
		return fmt.Errorf("hw: PCIe lane count must be positive (got %d)", m.PCIeLanes)
	case m.PCIeVersion < 1 || m.PCIeVersion > 6:
		return fmt.Errorf("hw: PCIe version %d out of range [1,6]", m.PCIeVersion)
	case m.FlashPageBytes <= 0:
		return fmt.Errorf("hw: flash page size must be positive (got %d)", m.FlashPageBytes)
	case m.SelBufBytes <= 0 || m.JoinBufBytes <= 0:
		return fmt.Errorf("hw: device buffer sizes must be positive")
	case m.DeviceNDPBudget > m.DeviceMemBytes:
		return fmt.Errorf("hw: NDP budget %d exceeds device memory %d", m.DeviceNDPBudget, m.DeviceMemBytes)
	case m.SharedSlots <= 0 || m.SharedBufferSlot <= 0:
		return fmt.Errorf("hw: shared buffer configuration must be positive")
	case m.DeviceFlashGBps <= 0 || m.HostFlashGBps <= 0 || m.HostMemcpyGBps <= 0 || m.DeviceMemcpyGBps <= 0:
		return fmt.Errorf("hw: bandwidths must be positive")
	}
	return nil
}

// ComputeRatio is the host/device single-core compute performance ratio
// (paper: 92343/2964 ≈ 31×).
func (m Model) ComputeRatio() float64 { return m.HostCoreMark / m.DeviceCoreMark }

// MemRatio is the host/device memory-bandwidth ratio, used for memory-bound
// primitives such as memcmp/memcpy where the penalty is much smaller than the
// raw compute ratio.
func (m Model) MemRatio() float64 { return m.HostMemcpyGBps / m.DeviceMemcpyGBps }

// NDPLeanFactor models that the offloaded NDP pipeline is lean, hand-written
// code over raw records, while the host engine pays the full SQL-layer
// per-record overhead (handler API, interpreted row format, MVCC checks).
// This is what lets a 667 MHz ARM core stay roughly competitive per record
// with a 3.4 GHz host running MySQL — the effect the paper's Exp 4
// demonstrates. Full NDP still loses on large plans through the pointer-cache
// dereferencing of deep pipelines (§4.2) and the bounded device buffers,
// which is the paper's stated failure mode for whole-plan offloading.
// BenchmarkAblationLeanFactor sweeps this constant.
const NDPLeanFactor = 10.7

// DataPathRatio is the raw host/device penalty of record-at-a-time work:
// such loops are part compute-bound, part memory-bound, so the geometric
// mean of the CoreMark and memory-bandwidth ratios is used.
func (m Model) DataPathRatio() float64 {
	return math.Sqrt(m.ComputeRatio() * m.MemRatio())
}

// DeviceCPUPenalty is the effective per-record slowdown of the on-device
// engine relative to the host engine: the raw data-path ratio discounted by
// the lean-pipeline factor (≈1.3× with the paper's COSMOS+ numbers).
func (m Model) DeviceCPUPenalty() float64 {
	return m.DataPathRatio() / NDPLeanFactor
}
