package hw

import (
	"bytes"
	"strings"
	"testing"

	"hybridndp/internal/vclock"
)

func TestCosmosModelValid(t *testing.T) {
	m := Cosmos()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := m.ComputeRatio(); r < 30 || r > 33 {
		t.Fatalf("CoreMark ratio %.1f, paper says ≈31.2", r)
	}
	if m.MemRatio() <= 1 {
		t.Fatal("host memory bandwidth must exceed the device's")
	}
	if m.DeviceFlashGBps <= m.HostFlashGBps {
		t.Fatal("internal flash bandwidth must exceed the external path (the NDP premise)")
	}
	if p := m.DeviceCPUPenalty(); p < 1 || p > 4 {
		t.Fatalf("device CPU penalty %.2f outside the calibrated band", p)
	}
}

func TestValidateRejectsBrokenModels(t *testing.T) {
	cases := []func(*Model){
		func(m *Model) { m.HostCoreMark = 0 },
		func(m *Model) { m.PCIeLanes = 0 },
		func(m *Model) { m.PCIeVersion = 9 },
		func(m *Model) { m.FlashPageBytes = 0 },
		func(m *Model) { m.JoinBufBytes = 0 },
		func(m *Model) { m.DeviceNDPBudget = m.DeviceMemBytes + 1 },
		func(m *Model) { m.SharedSlots = 0 },
		func(m *Model) { m.HostFlashGBps = 0 },
	}
	for i, mut := range cases {
		m := Cosmos()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: broken model passed validation", i)
		}
	}
}

func TestDeviceRatesSlowerPerRecordCheaperFlash(t *testing.T) {
	m := Cosmos()
	h, d := HostRates(m), DeviceRates(m)
	if d.EvalNsPerTerm <= h.EvalNsPerTerm {
		t.Fatal("device record evaluation must be slower than host")
	}
	if d.HashBuildNsRec <= h.HashBuildNsRec || d.HashProbeNsRec <= h.HashProbeNsRec {
		t.Fatal("device hashing must be slower than host")
	}
	if d.FlashNsPerByte >= h.FlashNsPerByte {
		t.Fatal("device flash streaming must be cheaper than the host path")
	}
	if !d.OnDevice || h.OnDevice {
		t.Fatal("OnDevice flags wrong")
	}
}

func TestBlockStackTax(t *testing.T) {
	m := Cosmos()
	n, b := HostRates(m), BlockStackRates(m)
	if b.StackOverhead <= n.StackOverhead {
		t.Fatal("BLK stack must carry the abstraction tax")
	}
	tlN, tlB := vclock.NewTimeline("n"), vclock.NewTimeline("b")
	n.FlashRead(tlN, 1<<20, 4)
	b.FlashRead(tlB, 1<<20, 4)
	if tlB.Now() <= tlN.Now() {
		t.Fatal("BLK flash reads must cost more than native")
	}
}

func TestCFPCIeGenerationsMonotone(t *testing.T) {
	// bandwidth is the link's usable bytes per nanosecond (GB/s).
	bandwidth := func(c PCIeCost) float64 { return 1 / float64(c.PerByte) }
	prev := 0.0
	for gen := 1; gen <= 6; gen++ {
		c := CFPCIe(gen, 8)
		bw := bandwidth(c)
		if bw <= prev {
			t.Fatalf("gen %d bandwidth %.2f not above gen %d's %.2f", gen, bw, gen-1, prev)
		}
		prev = bw
	}
	// Lanes scale bandwidth.
	if bandwidth(CFPCIe(2, 16)) <= bandwidth(CFPCIe(2, 8)) {
		t.Fatal("doubling lanes must increase bandwidth")
	}
	// Unknown generation falls back rather than exploding.
	if bandwidth(CFPCIe(99, 8)) != bandwidth(CFPCIe(2, 8)) {
		t.Fatal("unknown generation should fall back to gen 2")
	}
	if bandwidth(CFPCIe(2, 0)) <= 0 {
		t.Fatal("zero lanes should clamp to one")
	}
}

func TestTransferBlocksChargeCommands(t *testing.T) {
	c := CFPCIe(2, 8)
	one := c.Transfer(1<<20, 1<<20)
	many := c.Transfer(1<<20, 4<<10) // 256 commands
	if many <= one {
		t.Fatal("more blocks must cost more (per-command overhead)")
	}
	if c.Transfer(0, 4<<10) != 0 {
		t.Fatal("zero-byte transfer must be free")
	}
	// Default block size applies when none given.
	if c.Transfer(1<<20, 0) <= 0 {
		t.Fatal("default block size broken")
	}
}

func TestRatesChargeCategories(t *testing.T) {
	m := Cosmos()
	r := HostRates(m)
	tl := vclock.NewTimeline("x")
	r.Eval(tl, 100, 2)
	r.Memcmp(tl, 1000, 10)
	r.Memcpy(tl, 1000)
	r.HashBuild(tl, 10)
	r.HashProbe(tl, 10)
	r.SeekIndex(tl, 5)
	r.SeekData(tl, 5)
	r.Group(tl, 10)
	r.RowOverhead(tl, 10, "")
	r.Transfer(tl, 1000, 100)
	r.Deref(tl, 10, 3, 100)
	for _, cat := range []string{CatEval, CatMemcmp, CatCompareKeys, CatMemcpy,
		CatHashBuild, CatHashProbe, CatSeekIndex, CatSeekData, CatGroup, CatSelection, CatTransfer, CatBufferManage} {
		if tl.Account()[cat] <= 0 {
			t.Errorf("category %q not charged", cat)
		}
	}
	// Zero/negative inputs are no-ops.
	before := tl.Now()
	r.Eval(tl, 0, 2)
	r.Memcpy(tl, 0)
	r.HashBuild(tl, 0)
	r.Deref(tl, 0, 3, 0)
	if tl.Now() != before {
		t.Fatal("zero work charged time")
	}
}

func TestProfilerDerivesModel(t *testing.T) {
	p := Profiler{Base: Cosmos(), Quick: true}
	res := p.Run()
	if len(res.MemcpyGBps) == 0 || res.FloatOpsPerSec <= 0 {
		t.Fatal("profiler measured nothing")
	}
	if err := res.Model.Validate(); err != nil {
		t.Fatalf("derived model invalid: %v", err)
	}
	// The derived model preserves the CoreMark calibration.
	if res.Model.ComputeRatio() != Cosmos().ComputeRatio() {
		t.Fatal("profiler must not alter the CoreMark calibration")
	}
	var buf bytes.Buffer
	if err := res.WriteParameterFile(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ndp_hw_fcf", "hw_mss", "hw_msj", "hw_ipl", "hw_ipv"} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("parameter file missing %s", key)
		}
	}
	buf.Reset()
	if err := res.Report(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "memcpy") {
		t.Fatal("report missing measurements")
	}
}
