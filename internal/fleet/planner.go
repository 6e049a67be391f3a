package fleet

import (
	"fmt"

	"hybridndp/internal/cost"
	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/optimizer"
)

// Execution modes of a fleet assignment, derived from the optimizer's global
// decision. Host runs the whole query on the host (no scatter); H0 offloads
// every leaf selection fleet-wide; Hybrid runs the first Split join steps on
// every device; NDP offloads every join.
const (
	ModeHost   = "host"
	ModeH0     = "H0"
	ModeHybrid = "hybrid"
	ModeNDP    = "ndp"
)

// Assignment is a planned fleet execution: the plan, the global mode, the
// driving table's partitions in ascending key order, and the one device
// command every device runs over its own partitions.
type Assignment struct {
	Plan *exec.Plan
	Mode string
	// DrivingParts are the driving table's descriptor partitions, ascending;
	// the scatter-gather merge consumes them in exactly this order.
	DrivingParts []Partition
	// Split is the PQEP cut of the fleet's command, the split point Hk of the
	// device command: 0 = H0 (leaf selections / single-table scan ship
	// filtered rows, all joins host-side), k ≥ 1 = the first k join steps run
	// on the device.
	Split int
	// Mem is the device DRAM reservation of the command.
	Mem device.MemoryPlan
	// EstDevNs is the cost model's estimate of one device's share of the
	// device-side work, from which the hedge threshold is derived.
	EstDevNs float64
	// EstHostNs estimates what one device's partitions would cost executed
	// host-native (a 1/Devices share of the plan's host-only total), fed to
	// the hedge winner decision.
	EstHostNs float64
}

// Label summarizes the assignment for sweep tables: the global mode, or the
// split of a hybrid one (e.g. "H2").
func (a *Assignment) Label() string {
	if a.Mode != ModeHybrid {
		return a.Mode
	}
	return fmt.Sprintf("H%d", a.Split)
}

// PlanShards turns the optimizer's global decision into the fleet's one
// device command against the descriptor: the global choice fixes the
// strategy family (host / H0 / hybrid / NDP — H0's leaf broadcast and the
// host baseline are fleet-global by construction), and within the hybrid
// family the split-point calculation is re-run once for a 1/Devices share of
// the driving table (Build cuts every table at quantiles of its statistics
// sample, so a device holds that share to within a sample row per
// partition), deepening past the
// single-device split while the shared gather host allows; a fleet on which
// no split pays at that share runs on the host. The command is priced
// through the cost model's quote and reserves the decision's memory plan of
// its split.
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
	n := float64(desc.Devices)
	a.DrivingParts, a.EstHostNs = parts, d.Costs.HostTotal/n
	switch {
	case d.NDP:
		// Every device runs its partitions through every join step — a
		// single-table plan's shards scan and filter — and the host merges
		// and finalizes (projection/aggregation over the merged stream keeps
		// fleet results byte-identical to one device).
		a.Mode, a.Split = ModeNDP, len(p.Steps)
		devNs, _, _ := d.Costs.Quote(cost.NDPOnly, a.Split)
		a.EstDevNs = devNs / n
	case d.Split == 0:
		// H0 is fleet-global: every device ships its partitions of every leaf
		// selection and the host joins the merged inners.
		a.Mode = ModeH0
		devNs, _, _ := d.Costs.Quote(cost.Hybrid, 0)
		a.EstDevNs = devNs / n
	default:
		sd, err := opt.DecideShard(d, desc.Devices)
		if err != nil {
			return nil, err
		}
		if !sd.Hybrid {
			return &Assignment{Plan: p, Mode: ModeHost}, nil
		}
		a.Mode, a.Split = ModeHybrid, sd.Split
		a.EstDevNs, _, _ = sd.Costs.Quote(cost.Hybrid, sd.Split)
	}
	a.Mem = d.Mem[a.Split]
	return a, nil
}
