// Package cost implements the hybridNDP cost model (paper §3): per-table
// scan/CPU/transfer costs (eq. 1–6), join cost accumulation (eq. 7–8), and
// the split-point calculation against the hardware-model-derived target cost
// (eq. 9–12). Costs are expressed in virtual nanoseconds — the same unit the
// execution engines charge — so estimates and measurements are directly
// comparable and "cost units" have a physical meaning.
package cost

import (
	"fmt"
	"math"
	"slices"

	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
)

// Kind is the shape of an execution strategy: where the plan runs. BlockOnly
// and HostNative run the whole plan on the host over the BLK / native stacks
// (paper Fig. 10 baselines); NDPOnly offloads the complete plan; Hybrid splits
// it at Hk. The cost model prices every kind (Quote), so the executors share
// its vocabulary.
type Kind int

// Execution strategy kinds.
const (
	BlockOnly Kind = iota
	HostNative
	NDPOnly
	Hybrid
)

func (k Kind) String() string {
	switch k {
	case BlockOnly:
		return "block"
	case HostNative:
		return "native"
	case NDPOnly:
		return "ndp"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Side selects whose rates price an operation.
type Side int

// Execution sides.
const (
	Host Side = iota
	Device
)

func (s Side) String() string {
	if s == Device {
		return "device"
	}
	return "host"
}

// Params are the user/configuration variables of Table 1.
type Params struct {
	// UsrRec is the row evaluation cost (usr_rec) in ns per record per
	// predicate term, host-side baseline.
	UsrRec float64
}

// DefaultParams mirrors the engine's calibration.
func DefaultParams() Params { return Params{UsrRec: 40} }

// Estimator prices plans from statistics and the hardware model. Its
// parameters are fixed at construction, which is what makes a plan a pure
// function of the query and the statistics (the optimizer's plan memo rests on
// it); estimators are safe for concurrent use.
type Estimator struct {
	Cat   *table.Catalog
	Model hw.Model

	// TargetCPUOnly drops the memory term from the split target (eq. 12),
	// for the split-target ablation benchmark.
	TargetCPUOnly bool

	params Params

	hostR hw.Rates
	devR  hw.Rates
}

// NewEstimator builds an estimator over the catalog and hardware model.
func NewEstimator(cat *table.Catalog, m hw.Model, p Params) *Estimator {
	return &Estimator{Cat: cat, Model: m, params: p, hostR: hw.HostRates(m), devR: hw.DeviceRates(m)}
}

func (e *Estimator) rates(s Side) hw.Rates {
	if s == Device {
		return e.devR
	}
	return e.hostR
}

// cpuFactor scales record-at-a-time work for the side, mirroring the
// engines' effective device CPU penalty.
func (e *Estimator) cpuFactor(s Side) float64 {
	if s == Device {
		return e.Model.DeviceCPUPenalty()
	}
	return 1
}

// NodeCost decomposes the estimated cost of one plan node (eq. 1):
// c_total = c_scan + c_cpu + c_trans.
type NodeCost struct {
	Scan  float64 // c_scan = tbl_sea + calc_frt (eq. 2)
	CPU   float64 // c_cpu (eq. 3) plus join work when the node is a join step
	Trans float64 // c_trans (eq. 4/7)
}

// Total is c_scan + c_cpu + c_trans.
func (n NodeCost) Total() float64 { return n.Scan + n.CPU + n.Trans }

// AccessCost prices one base-table access path on the given side: scanning
// the table's pages from flash (or seeking through an index), evaluating the
// local predicate on every record, and copying survivors to the selection
// cache. Transfer is not included here — it depends on where the plan is cut.
func (e *Estimator) AccessCost(ap exec.AccessPath, s Side) (NodeCost, error) {
	t, err := e.Cat.Table(ap.Ref.Table)
	if err != nil {
		return NodeCost{}, err
	}
	st := t.CollectStats()
	r := e.rates(s)
	rows := float64(st.RowCount)
	matched := ap.EstRows
	if matched <= 0 {
		matched = rows * math.Max(ap.EstSel, 1e-6)
	}
	pb := float64(t.Schema.ProjWidth(ap.Proj))
	var nc NodeCost

	if ap.UseFilterIndex {
		// Index equality access: one secondary range seek plus one primary
		// lookup per match. The block cache bounds distinct flash reads by
		// the table's data-block count; the CPU seek work stays per lookup.
		pageCost := float64(r.FlashPageLatNs) + float64(lsm.TargetBlockBytes)*r.FlashNsPerByte
		pages := float64(st.TotalBytes())/float64(lsm.TargetBlockBytes) + 1
		flashLookups := math.Min(matched, pages)
		nc.Scan = flashLookups * pageCost * r.StackOverhead
		nc.CPU = matched * (e.params.UsrRec*e.cpuFactor(s) + float64(r.SeekNsPerLevel)*12)
	} else {
		bytes := rows * float64(st.RowBytes)
		pages := bytes / float64(r.FlashPageBytes)
		// tbl_sea: storage-engine access cost (streaming the pages).
		sea := bytes * r.FlashNsPerByte * r.StackOverhead
		// calc_frt: per-page flash overhead weighted by the flash clock
		// ratio of the side (host_hw_FCF vs ndp_hw_FCF).
		frt := pages * float64(r.FlashPageLatNs) * 0.02 * r.StackOverhead
		nc.Scan = sea + frt
		terms := 1.0
		if ap.Filter != nil {
			terms = float64(ap.Filter.Terms())
		}
		// eq. 3: tbl_ren · usr_rec · node_pbn · calc_pcf — per-record
		// evaluation scaled by the projection cost impact factor.
		pcf := e.cpuFactor(s) * (0.5 + 0.5*pb/float64(st.RowBytes))
		nc.CPU = rows*e.params.UsrRec*terms*e.cpuFactor(s) + matched*pb*r.MemcpyNsPerByte*1.0*pcf/e.cpuFactor(s)
	}
	return nc, nil
}

// TransferCost prices shipping rows of width pbn over the interconnect
// (eq. 4 and 7): volume divided into blocks, each priced by cf_pcie.
func (e *Estimator) TransferCost(rows, pbn float64) float64 {
	if rows <= 0 {
		return 0
	}
	pc := hw.CFPCIe(e.Model.PCIeVersion, e.Model.PCIeLanes)
	vol := int64(rows * pbn)
	return float64(pc.Transfer(vol, e.Model.SharedBufferSlot))
}

// StepCost prices one join step on the given side given the estimated left
// cardinality, returning the node cost (access of the right side plus the
// join work) and the estimated output cardinality.
func (e *Estimator) StepCost(step exec.JoinStep, leftRows float64, s Side) (NodeCost, float64, error) {
	rt, err := e.Cat.Table(step.Right.Ref.Table)
	if err != nil {
		return NodeCost{}, 0, err
	}
	st := rt.CollectStats()
	r := e.rates(s)
	rightMatched := step.Right.EstRows
	if rightMatched <= 0 {
		rightMatched = float64(st.RowCount) * math.Max(step.Right.EstSel, 1e-6)
	}
	outRows := step.EstRows
	if outRows <= 0 {
		outRows = e.JoinOutRows(step, leftRows, rightMatched)
	}

	var nc NodeCost
	switch step.Type {
	case exec.BNLI:
		// Per-probe index access: secondary seek, then one primary lookup
		// per *match* (every matching record is fetched through the primary
		// LSM tree — Fig. 9). Distinct flash block reads are bounded by the
		// right table's block count (the block cache absorbs repeats); CPU
		// seek work stays per probe and per fetch.
		pageCost := float64(r.FlashPageLatNs) + float64(lsm.TargetBlockBytes)*r.FlashNsPerByte
		pages := float64(st.TotalBytes())/float64(lsm.TargetBlockBytes) + 1
		seeks := 1.0
		if !step.RightIndexIsPK {
			seeks = 2 // secondary→primary two-stage seek (Fig. 9)
		}
		flashLookups := math.Min(leftRows*seeks+outRows, pages*(1+seeks))
		nc.Scan = flashLookups * pageCost * r.StackOverhead
		nc.CPU = leftRows*(float64(r.HashProbeNsRec)+float64(r.SeekNsPerLevel)*12*seeks) +
			outRows*(e.params.UsrRec*e.cpuFactor(s)+float64(r.SeekNsPerLevel)*12)
	default: // BNL: hash join in the join buffer
		acc, err := e.AccessCost(step.Right, s)
		if err != nil {
			return NodeCost{}, 0, err
		}
		nc = acc
		build := rightMatched * float64(r.HashBuildNsRec)
		probe := leftRows * float64(r.HashProbeNsRec)
		nc.CPU += build + probe
		// Bounded device join buffer: extra inner passes (hw_MSJ).
		if s == Device {
			innerBytes := rightMatched * float64(rt.Schema.ProjWidth(step.Right.Proj))
			leftBytes := leftRows * 64 // pointer-cache resident outer estimate
			if innerBytes > float64(e.Model.JoinBufBytes) && leftBytes > float64(e.Model.JoinBufBytes) {
				passes := math.Ceil(leftBytes / float64(e.Model.JoinBufBytes))
				nc.Scan *= passes
			}
		}
	}
	// node_brc: buffer management of the produced tuples (eq. 8).
	nc.CPU += outRows * float64(r.RowOverheadNs)
	return nc, outRows, nil
}

// DerefCost estimates the device pointer-cache dereferencing penalty for
// outRows tuples spanning positions tables of total width tupleBytes
// (charged only when the device runs in pointer format, i.e. >2 tables).
func (e *Estimator) DerefCost(outRows float64, positions int, tupleBytes float64) float64 {
	r := e.devR
	return outRows*float64(positions)*3*r.SeekNsPerLevel + outRows*tupleBytes*r.MemcpyNsPerByte
}

// JoinOutRows estimates join output cardinality with the classic 1/ndv
// equality-join selectivity. Conditions binding the same right-side column
// (transitive equalities JOB queries spell out, e.g. three movie_id
// equalities) are counted once — treating them as independent would collapse
// the estimate by orders of magnitude.
func (e *Estimator) JoinOutRows(step exec.JoinStep, leftRows, rightRows float64) float64 {
	rt, err := e.Cat.Table(step.Right.Ref.Table)
	if err != nil {
		return leftRows
	}
	st := rt.CollectStats()
	sel := 1.0
	for i, c := range step.Conds {
		if slices.ContainsFunc(step.Conds[:i], func(p exec.BoundCond) bool { return p.RightCol == c.RightCol }) {
			continue
		}
		d := float64(st.NDV[c.RightCol])
		if d < 1 {
			d = 1
		}
		sel /= d
	}
	out := leftRows * rightRows * sel
	if out < 0.1 {
		out = 0.1
	}
	return out
}

// SplitCosts is the full cost picture of one plan: host-only and NDP-only
// totals, the cumulative device cost at every split point H0..Hn, the target
// cost, and the device, host and transfer parts of every hybrid alternative.
type SplitCosts struct {
	HostTotal float64 // c_total of the host-only QEP (eq. 8)
	NDPTotal  float64 // c_total of the full-NDP QEP
	CTarget   float64 // eq. 12
	SplitCPU  float64 // eq. 9
	SplitMem  float64 // eq. 11

	// CNode[k] is the cumulative device-side cost at split point Hk
	// (Fig. 5's y-axis).
	CNode []float64
	// Rows[k] is the estimated cardinality entering the host at split Hk.
	Rows []float64
	// DevPart[k], HostPart[k] and Trans[k] are hybrid split Hk's device
	// work, host work and transfer (Quote). Note DevPart[0] prices the full
	// H0 leaf offload, which is more work than the cumulative curve point
	// CNode[0].
	DevPart  []float64
	HostPart []float64
	Trans    []float64

	// BestSplit is the Hk whose CNode is closest to CTarget (Fig. 5 step 3).
	BestSplit int
}

// Quote prices one execution strategy — kind, split at Hk when kind is
// Hybrid — as the device's work, the host's work and the transfer the host
// drives; Overlap turns the three into an end-to-end estimate. Host-only
// strategies have no device part, full NDP ships its result inside its total.
// It is the one price every layer compares strategies by.
func (sc *SplitCosts) Quote(kind Kind, k int) (dev, host, trans float64) {
	switch kind {
	case Hybrid:
		return sc.DevPart[k], sc.HostPart[k], sc.Trans[k]
	case NDPOnly:
		return sc.NDPTotal, 0, 0
	}
	return 0, sc.HostTotal, 0
}

// Overlap is the end-to-end estimate of a quote: the device produces while
// the host consumes, so the slower side sets the pace, and the transfer adds
// on top (paper §4: max(device part, host part) + transfer).
func Overlap(dev, host, trans float64) float64 { return max(dev, host) + trans }

// NearestTarget is Fig. 5 step 3: among the split points Hk that fits
// admits (nil admits all), the one whose cumulative device cost CNode[k] is
// closest to CTarget, the lowest k on a tie; -1 when fits admits none.
func (sc *SplitCosts) NearestTarget(fits func(k int) bool) int {
	best := -1
	bestDist := math.Inf(1)
	for k, c := range sc.CNode {
		if fits != nil && !fits(k) {
			continue
		}
		if d := math.Abs(c - sc.CTarget); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// PlanCosts prices the plan for all execution alternatives.
func (e *Estimator) PlanCosts(p *exec.Plan) (*SplitCosts, error) {
	return e.ShardPlanCosts(p, 1)
}

// ShardPlanCosts prices the plan for one driving-table shard holding
// drivingFrac of the driving table's rows (fleet execution): the driving
// node's access cost and initial cardinality scale with the fraction, while
// the inner tables stay full-size — they are broadcast to every shard, so
// join-side scan costs do not shrink with the shard.
func (e *Estimator) ShardPlanCosts(p *exec.Plan, drivingFrac float64) (*SplitCosts, error) {
	n := p.NumTables()
	sc := &SplitCosts{}

	// Width of a tuple with the first k+1 tables populated.
	widths := make([]float64, n)
	{
		t, _ := e.Cat.Table(p.Driving.Ref.Table)
		widths[0] = float64(t.Schema.ProjWidth(p.Driving.Proj))
		for i, st := range p.Steps {
			rt, _ := e.Cat.Table(st.Right.Ref.Table)
			widths[i+1] = widths[i] + float64(rt.Schema.ProjWidth(st.Right.Proj))
		}
	}

	// Per-side chain costs with cardinality propagation. The device chain
	// additionally pays the pointer-cache dereferencing penalty on deep
	// plans (>2 tables switch to pointer format, paper §4.2).
	type chain struct {
		nodes []NodeCost
		rows  []float64 // rows after position i
	}
	build := func(s Side) (chain, error) {
		ch := chain{nodes: make([]NodeCost, 0, n), rows: make([]float64, 0, n)}
		acc, err := e.AccessCost(p.Driving, s)
		if err != nil {
			return ch, err
		}
		acc = scaleNode(acc, drivingFrac)
		rows := p.Driving.EstRows
		if rows <= 0 {
			t, _ := e.Cat.Table(p.Driving.Ref.Table)
			rows = float64(t.CollectStats().RowCount) * math.Max(p.Driving.EstSel, 1e-6)
		}
		rows *= drivingFrac
		ch.nodes = append(ch.nodes, acc)
		ch.rows = append(ch.rows, rows)
		for i, st := range p.Steps {
			nc, out, err := e.StepCost(st, rows, s)
			if err != nil {
				return ch, err
			}
			if s == Device && n > 2 {
				nc.CPU += e.DerefCost(out, i+2, widths[i+1])
			}
			ch.nodes = append(ch.nodes, nc)
			ch.rows = append(ch.rows, out)
			rows = out
		}
		return ch, nil
	}
	hostCh, err := build(Host)
	if err != nil {
		return nil, err
	}
	devCh, err := build(Device)
	if err != nil {
		return nil, err
	}

	finalRows := hostCh.rows[n-1]
	resultWidth := widths[n-1]

	// Host-only total (eq. 8 accumulated): all nodes at host rates, no
	// interconnect transfer beyond the flash path.
	for _, nc := range hostCh.nodes {
		sc.HostTotal += nc.Total()
	}
	// Group/aggregate cost on top.
	groupCost := func(rows float64, s Side) float64 {
		if len(p.Aggregates) == 0 && len(p.GroupBy) == 0 {
			return 0
		}
		return rows * float64(e.rates(s).GroupNsRec)
	}
	sc.HostTotal += groupCost(finalRows, Host)

	// NDP-only: all nodes at device rates plus final result transfer.
	for _, nc := range devCh.nodes {
		sc.NDPTotal += nc.Total()
	}
	sc.NDPTotal += groupCost(devCh.rows[n-1], Device) + e.TransferCost(devCh.rows[n-1], resultWidth)

	// Split points. H0: device runs every leaf selection; host joins.
	// Hk (k≥1): device runs leaves 0..k and joins 1..k; host reads the rest.
	sc.CNode = make([]float64, n)
	sc.Rows = make([]float64, n)
	sc.DevPart = make([]float64, n)
	sc.HostPart = make([]float64, n)
	sc.Trans = make([]float64, n)

	// H0 device part: all leaf selections at device rates.
	var h0dev float64
	leafTrans := 0.0
	{
		acc, _ := e.AccessCost(p.Driving, Device)
		h0dev += scaleNode(acc, drivingFrac).Total()
		leafTrans += e.TransferCost(devCh.rows[0], widths[0])
		for _, st := range p.Steps {
			acc, err := e.AccessCost(st.Right, Device)
			if err != nil {
				return nil, err
			}
			h0dev += acc.Total()
			rm := st.Right.EstRows
			rt, _ := e.Cat.Table(st.Right.Ref.Table)
			if rm <= 0 {
				rm = float64(rt.CollectStats().RowCount) * math.Max(st.Right.EstSel, 1e-6)
			}
			leafTrans += e.TransferCost(rm, float64(rt.Schema.ProjWidth(st.Right.Proj)))
		}
	}
	// Fig. 5's cumulative curve: c_node(H0) is the first (cheapest) table's
	// device cost; each further split point adds the next node. The H0
	// *execution* offloads every leaf (§3.4), which DevPart[0] prices via
	// h0dev, but the split-point curve stays cumulative in plan order.
	sc.CNode[0] = devCh.nodes[0].Total()
	sc.Rows[0] = devCh.rows[0]
	// H0 host part: all joins at host rates over device-filtered inputs.
	// Cardinalities do not depend on the side, so a join the host runs after
	// any split sees the rows it sees in the host-only chain and costs what
	// it costs there: the host parts below add up the host chain's nodes.
	{
		hostJoin := 0.0
		for _, nc := range hostCh.nodes[1:] {
			// The right side was already filtered on device; drop the scan
			// component, keep the join CPU.
			hostJoin += nc.CPU
		}
		hostJoin += groupCost(finalRows, Host)
		sc.DevPart[0] = h0dev
		sc.HostPart[0] = hostJoin
		sc.Trans[0] = leafTrans
	}

	// Hk for k ≥ 1.
	for k := 1; k < n; k++ {
		var devPart float64
		for i := 0; i <= k; i++ {
			devPart += devCh.nodes[i].Total()
		}
		sc.CNode[k] = devPart
		sc.Rows[k] = devCh.rows[k]
		trans := e.TransferCost(devCh.rows[k], widths[k])

		var hostPart float64
		for _, nc := range hostCh.nodes[k+1:] {
			hostPart += nc.Total()
		}
		hostPart += groupCost(finalRows, Host)
		sc.DevPart[k] = devPart
		sc.HostPart[k] = hostPart
		sc.Trans[k] = trans
	}

	// Target cost, eq. 9–12.
	m := e.Model
	sc.SplitCPU = 100 * (m.DeviceFlashClockMHz * m.FlashWeight) / (m.HostFlashClockMHz * m.FlashWeight)
	splitDev := float64(int64(n)*m.SelBufBytes + int64(n-1)*m.JoinBufBytes)
	sc.SplitMem = 100 * (splitDev * m.DeviceMemWeight) / (float64(m.HostMemBytes) * m.DeviceMemWeight)
	cTotal := sc.CNode[n-1]
	if e.TargetCPUOnly {
		sc.CTarget = cTotal * sc.SplitCPU / 100
	} else {
		sc.CTarget = cTotal * (sc.SplitCPU + sc.SplitMem) / (2 * 100)
	}

	sc.BestSplit = sc.NearestTarget(nil)
	return sc, nil
}

// scaleNode scales every component of a node cost (a fractional table scan
// reads a fraction of the pages and evaluates a fraction of the records).
func scaleNode(nc NodeCost, f float64) NodeCost {
	if f == 1 {
		return nc
	}
	nc.Scan *= f
	nc.CPU *= f
	nc.Trans *= f
	return nc
}

// String renders the cost picture.
func (sc *SplitCosts) String() string {
	s := fmt.Sprintf("host=%.0f ndp=%.0f target=%.0f (cpu%%=%.1f mem%%=%.1f) best=H%d\n",
		sc.HostTotal, sc.NDPTotal, sc.CTarget, sc.SplitCPU, sc.SplitMem, sc.BestSplit)
	for k := range sc.CNode {
		s += fmt.Sprintf("  H%d: c_node=%.0f hybrid_est=%.0f rows=%.0f\n", k, sc.CNode[k], Overlap(sc.Quote(Hybrid, k)), sc.Rows[k])
	}
	return s
}
