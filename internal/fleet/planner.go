package fleet

import (
	"fmt"

	"hybridndp/internal/cost"
	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/table"
)

// Execution modes of a fleet assignment, derived from the optimizer's global
// decision. Host runs the whole query on the host (no scatter); H0 offloads
// every leaf selection fleet-wide; Hybrid gives every shard its own interior
// split; NDP offloads every join.
const (
	ModeHost   = "host"
	ModeH0     = "H0"
	ModeHybrid = "hybrid"
	ModeNDP    = "ndp"
)

// ShardPlan is one device's per-partition NDP-PQEP: where its plan is split,
// and what its share of the driving table (from its stats-sample PK counts
// over the descriptor's partitions) is estimated to cost.
type ShardPlan struct {
	Device int
	// Host marks a shard the planner keeps off its device: the shard's
	// partitions run entirely on the host (Split is then meaningless).
	Host bool
	// Split is the shard-local PQEP cut, the split point Hk of the device
	// command: 0 = H0 (the shard's leaf selections / single-table scan ship
	// filtered rows, all joins host-side), k ≥ 1 = the first k join steps
	// run on the device.
	Split int
	// EstDevNs is the cost model's estimate of the shard's device-side work,
	// from which the hedge threshold is derived.
	EstDevNs float64
	// EstHostNs estimates what this shard's partitions would cost executed
	// host-native (the shard's share of the plan's host-only total), fed to
	// the hedge winner decision.
	EstHostNs float64
	// Mem is the device DRAM reservation of the shard command.
	Mem device.MemoryPlan
}

// Assignment is a planned fleet execution: the plan, the global mode, the
// driving table's partitions in ascending key order, and one ShardPlan per
// device.
type Assignment struct {
	Plan *exec.Plan
	Mode string
	// DrivingParts are the driving table's descriptor partitions, ascending;
	// the scatter-gather merge consumes them in exactly this order.
	DrivingParts []Partition
	// Shards is indexed by device id.
	Shards []ShardPlan
}

// label renders the shard's cut for sweep tables.
func (sp ShardPlan) label() string {
	if sp.Host {
		return "host"
	}
	return fmt.Sprintf("H%d", sp.Split)
}

// Label summarizes the assignment for sweep tables: the global mode, plus
// the per-device splits when they diverge (e.g. "H2" or "H2/H1/host/H2").
func (a *Assignment) Label() string {
	if a.Mode != ModeHybrid {
		return a.Mode
	}
	out := a.Shards[0].label()
	uniform := true
	for _, sp := range a.Shards[1:] {
		uniform = uniform && sp.label() == out
	}
	if uniform {
		return out
	}
	for _, sp := range a.Shards[1:] {
		out += "/" + sp.label()
	}
	return out
}

// PlanShards turns the optimizer's global decision into per-shard PQEPs
// against the fleet descriptor: the global choice fixes the strategy family
// (host / H0 / hybrid / NDP — H0's leaf broadcast and the host baseline are
// fleet-global by construction), and within the hybrid family every device
// re-runs the split-point calculation against its shard's local statistics,
// so a small shard whose fixed inner-scan costs dominate may cut its PQEP at
// a different Hk — or hand its partition back to the host — than a large one.
// Every shard is priced through the cost model's quote and reserves the
// decision's memory plan of its split.
func PlanShards(opt *optimizer.Optimizer, desc *Descriptor, d *optimizer.Decision) (*Assignment, error) {
	p := d.Plan
	a := &Assignment{Plan: p, Mode: ModeHost}
	if !d.Hybrid && !d.NDP {
		return a, nil
	}
	parts, ok := desc.Parts[p.Driving.Ref.Table]
	if !ok {
		return nil, fmt.Errorf("%w: driving table %q has no fleet partitions",
			ErrUnknownTable, p.Driving.Ref.Table)
	}
	a.DrivingParts = parts

	t, err := opt.Cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return nil, err
	}
	fracs := desc.drivingFracs(p.Driving.Ref.Table, t.CollectStats())
	a.Shards = make([]ShardPlan, desc.Devices)

	// The fleet-global strategy every shard shares, unless the hybrid family
	// lets it choose its own.
	kind, split := cost.Hybrid, d.Split
	switch {
	case d.NDP:
		// Every shard runs its partitions through every join step — a
		// single-table plan's shards scan and filter — and the host merges
		// and finalizes (projection/aggregation over the merged stream keeps
		// fleet results byte-identical to one device).
		a.Mode, kind, split = ModeNDP, cost.NDPOnly, len(p.Steps)
	case d.Split == 0:
		// H0 is fleet-global: every device ships its partitions of every leaf
		// selection and the host joins the merged inners.
		a.Mode = ModeH0
	default:
		a.Mode = ModeHybrid
	}
	for dev := range a.Shards {
		sp := &a.Shards[dev]
		*sp = ShardPlan{Device: dev, Split: split,
			EstHostNs: fracs[dev] * d.Costs.HostTotal}
		if a.Mode != ModeHybrid {
			devNs, _, _ := d.Costs.Quote(kind, split)
			sp.EstDevNs, sp.Mem = fracs[dev]*devNs, d.Mem[split]
			continue
		}
		sd, err := opt.DecideShard(d, fracs[dev])
		if err != nil {
			return nil, err
		}
		if sp.Host = !sd.Hybrid; !sp.Host {
			sp.Split, sp.Mem = sd.Split, d.Mem[sd.Split]
			sp.EstDevNs, _, _ = sd.Costs.Quote(cost.Hybrid, sd.Split)
		}
	}
	return a, nil
}

// drivingFracs returns each device's share of the named table under the
// statistics st. The shares depend on the two alone, so they are counted once
// per statistics object (a BulkLoad makes the table's next CollectStats a
// new one) and the returned slice is shared: read-only.
func (d *Descriptor) drivingFracs(name string, st *table.Stats) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.fracs[name]; ok && f.stats == st {
		return f.fracs
	}
	fr := drivingFracs(st.Sample, d.Parts[name], d.Devices)
	if d.fracs == nil {
		d.fracs = make(map[string]tableFracs)
	}
	d.fracs[name] = tableFracs{stats: st, fracs: fr}
	return fr
}

// drivingFracs estimates each device's share of the driving table by
// counting stats-sample PKs over its partitions. A device whose partitions
// caught no sample rows gets the Laplace floor so shard costing never
// degenerates; a single-device fleet gets exactly 1 so shard planning
// reproduces the global split decision bit for bit.
func drivingFracs(sample []table.Record, parts []Partition, devices int) []float64 {
	fr := make([]float64, devices)
	if devices == 1 {
		fr[0] = 1
		return fr
	}
	n := len(sample)
	if n == 0 {
		for _, p := range parts {
			fr[p.Device] += 1.0 / float64(len(parts))
		}
		return fr
	}
	counts := make([]int, devices)
	for _, r := range sample {
		pk := r.PK()
		for _, p := range parts {
			if p.Contains(pk) {
				counts[p.Device]++
				break
			}
		}
	}
	for dev := range fr {
		fr[dev] = float64(counts[dev]) / float64(n)
		if fr[dev] == 0 {
			fr[dev] = 0.5 / (float64(n) + 1)
		}
	}
	return fr
}
