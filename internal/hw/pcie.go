package hw

import "hybridndp/internal/vclock"

// PCIe line parameters per generation: transfer rate in GT/s per lane and the
// line-encoding efficiency (8b/10b for gen 1-2, 128b/130b from gen 3 on).
type pcieGen struct {
	gtps       float64
	efficiency float64
}

var pcieGens = map[int]pcieGen{
	1: {2.5, 8.0 / 10.0},
	2: {5.0, 8.0 / 10.0},
	3: {8.0, 128.0 / 130.0},
	4: {16.0, 128.0 / 130.0},
	5: {32.0, 128.0 / 130.0},
	6: {64.0, 242.0 / 256.0}, // FLIT mode approximation
}

// pcieProtocolEfficiency accounts for TLP header, DLLP and flow-control
// overhead plus the NVMe command/result-slot polling protocol the NDP result
// path shares with the host's flash read path. The effective external
// bandwidth it yields (≈0.8 GB/s for PCIe 2.0 x8) deliberately lands near
// the host flash path's effective bandwidth: both cross the same stack.
const pcieProtocolEfficiency = 0.3

// PCIeCost is the cf_pcie cost function of the paper (eq. 4, 7): it prices a
// transfer over the host/device interconnect from the PCIe version and lane
// count. PerByte is the streaming cost, PerCommand the fixed round-trip
// overhead of one NDP command / DMA descriptor handshake.
type PCIeCost struct {
	PerByte    vclock.Duration
	PerCommand vclock.Duration
}

// CFPCIe computes the PCIe cost function for a version/lane pair. Unknown
// versions fall back to gen 2 (the paper's platform).
func CFPCIe(version, lanes int) PCIeCost {
	gen, ok := pcieGens[version]
	if !ok {
		gen = pcieGens[2]
	}
	if lanes <= 0 {
		lanes = 1
	}
	// GT/s per lane × lanes × encoding × protocol efficiency → usable GB/s.
	gbps := gen.gtps * float64(lanes) / 8.0 * gen.efficiency * pcieProtocolEfficiency
	bytesPerNs := gbps // GB/s == bytes/ns
	return PCIeCost{
		PerByte:    vclock.Duration(1.0 / bytesPerNs),
		PerCommand: 4 * vclock.Microsecond,
	}
}

// Transfer prices moving n bytes split into blocks of blockBytes over the
// link (paper eq. 4: transfer volume divided in blocks times cf_pcie).
func (c PCIeCost) Transfer(n, blockBytes int64) vclock.Duration {
	if n <= 0 {
		return 0
	}
	if blockBytes <= 0 {
		blockBytes = 64 * KB
	}
	blocks := (n + blockBytes - 1) / blockBytes
	return vclock.Duration(float64(n))*c.PerByte + vclock.Duration(blocks)*c.PerCommand
}
