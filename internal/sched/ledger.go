package sched

import (
	"fmt"
	"math"

	"hybridndp/internal/hw"
	"hybridndp/internal/obs"
	"hybridndp/internal/vclock"
)

// Claim is the device-resource footprint of one NDP command: what it holds on
// its device from dispatch until it completes.
type Claim struct {
	// MemBytes is the device DRAM reservation of the offloaded partial plan
	// (device.PlanMemory: selection/join buffers within the NDP budget).
	MemBytes int64
	// BufSlots is the number of shared result-buffer slots held while the
	// command is in flight.
	BufSlots int
}

// slot is one NDP command slot of a device: the instant its occupant
// completes and the claim that occupant holds until then.
type slot struct {
	until vclock.Time
	claim Claim
}

// deviceCmdSlots is the number of concurrent NDP commands per device: the
// paper's COSMOS+ board dedicates one core to execution.
const deviceCmdSlots = 1

// devRow is one device's row of the ledger: its command slots and its circuit
// breaker. The breaker is count-based — consecFails consecutive command
// failures open it, probeAfter admissions routed around it make it half-open,
// and the next command is the probe: success closes it, failure re-opens it.
// Outcomes are reported in dispatch order (a run executes at its dispatch),
// so the breaker never depends on anything but the sequence of dispatches.
type devRow struct {
	slots       []slot
	breaker     breakerState
	consecFails int
	skipped     int // admissions routed around the device while open
}

// breakerState is a device breaker's position.
type breakerState int

// Breaker states: closed (healthy), open (routed around), half-open (probing).
const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Ledger is the load picture Place decides against: per host lane and per
// device command slot the virtual instant it falls free, plus per device the
// DRAM / buffer-slot claims of the commands still running and the circuit
// breaker. A lane is busy until its instant and free from then on, so nothing
// is ever "released": booking a run is writing its completion instant.
type Ledger struct {
	host []vclock.Time
	devs []devRow

	// Per-device capacities: the NDP DRAM budget (hw_MSS/hw_MSJ reservations
	// within ~400 MB) and the shared result-buffer slots.
	memCap int64
	bufCap int

	// Breaker tuning; threshold 0 disables breaking.
	brkThreshold  int
	brkProbeAfter int

	metrics *obs.Registry // nil disables counters and gauges
}

// NewLedger sizes the ledger from the hardware model: hostLanes host CPU
// lanes and devices smart-storage devices with one command slot each.
func NewLedger(m hw.Model, hostLanes, devices int) *Ledger {
	l := &Ledger{
		host:   make([]vclock.Time, max(hostLanes, 1)),
		devs:   make([]devRow, max(devices, 1)),
		memCap: m.DeviceNDPBudget,
		bufCap: m.SharedSlots,
	}
	for i := range l.devs {
		l.devs[i].slots = make([]slot, deviceCmdSlots)
	}
	return l
}

// ConfigureBreaker arms the per-device circuit breakers: a device trips open
// after threshold consecutive command failures and admits a half-open probe
// after probeAfter admissions routed around it. threshold <= 0 disables
// breaking.
func (l *Ledger) ConfigureBreaker(threshold, probeAfter int) {
	l.brkThreshold = max(threshold, 0)
	l.brkProbeAfter = max(probeAfter, 1)
}

// bindMetrics attaches a registry: breaker transitions count into it and
// every booking mirrors the touched rows' occupancy into gauges.
func (l *Ledger) bindMetrics(m *obs.Registry) {
	if m == nil {
		return
	}
	l.metrics = m
	m.Gauge("sched.ledger.host.lanes").SetInt(int64(len(l.host)))
	for i := range l.devs {
		l.publishDev(i, 0)
		l.publishBreaker(i)
	}
}

// publishDev mirrors device i's occupancy at instant at into gauges.
func (l *Ledger) publishDev(i int, at vclock.Time) {
	if l.metrics == nil {
		return
	}
	cmds, held := l.busyAt(i, at)
	p := fmt.Sprintf("sched.ledger.device.%d.", i)
	l.metrics.Gauge(p + "cmd_used").SetInt(int64(cmds))
	l.metrics.Gauge(p + "mem_used_bytes").SetInt(held.MemBytes)
	l.metrics.Gauge(p + "slots_used").SetInt(int64(held.BufSlots))
}

// publishBreaker mirrors device i's breaker position, and the count of
// breakers that are not closed, into gauges.
func (l *Ledger) publishBreaker(i int) {
	if l.metrics == nil {
		return
	}
	l.metrics.Gauge(fmt.Sprintf("sched.ledger.device.%d.breaker.state", i)).SetInt(int64(l.devs[i].breaker))
	tripped := 0
	for j := range l.devs {
		if l.devs[j].breaker != breakerClosed {
			tripped++
		}
	}
	l.metrics.Gauge("sched.breaker.state").SetInt(int64(tripped))
}

// earliestHost returns the host lane that falls free first (lowest index on
// ties) and that instant.
func (l *Ledger) earliestHost() (int, vclock.Time) {
	bi, bt := 0, l.host[0]
	for i := 1; i < len(l.host); i++ {
		if l.host[i] < bt {
			bi, bt = i, l.host[i]
		}
	}
	return bi, bt
}

// passable reports whether d's breaker lets the next command through: closed,
// half-open (that command is the probe), or open with this admission being
// the one that makes it half-open.
func (l *Ledger) passable(d *devRow) bool {
	return l.brkThreshold <= 0 || d.breaker != breakerOpen || d.skipped+1 >= l.brkProbeAfter
}

// anyPassable reports whether at least one device's breaker admits a command.
func (l *Ledger) anyPassable() bool {
	for i := range l.devs {
		if l.passable(&l.devs[i]) {
			return true
		}
	}
	return false
}

// fits reports whether claim c fits on device i beside the commands still
// running there at instant at. (The slot the claim is about to take is free at
// that instant by construction, so it never counts against itself.)
func (l *Ledger) fits(i int, at vclock.Time, c Claim) bool {
	_, held := l.busyAt(i, at)
	return held.MemBytes+c.MemBytes <= l.memCap && held.BufSlots+c.BufSlots <= l.bufCap
}

// earliestSlot finds the command slot a device-bound run would take: over
// every breaker-passable device, the slot with the earliest start instant
// max(floor, slot free) at which claim c fits beside the device's other
// occupants (lowest device, then slot, on ties).
func (l *Ledger) earliestSlot(floor vclock.Time, c Claim) (dev, take int, start vclock.Time, ok bool) {
	for i := range l.devs {
		d := &l.devs[i]
		if !l.passable(d) {
			continue
		}
		for j, s := range d.slots {
			at := max(floor, s.until)
			if (ok && at >= start) || !l.fits(i, at, c) {
				continue
			}
			dev, take, start, ok = i, j, at, true
		}
	}
	return dev, take, start, ok
}

// pass runs one admission past device i's breaker and reports whether it gets
// through. An open breaker counts the admission as routed around it and goes
// half-open once probeAfter of them accumulated.
func (l *Ledger) pass(i int) bool {
	d := &l.devs[i]
	if l.brkThreshold <= 0 || d.breaker != breakerOpen {
		return true
	}
	d.skipped++
	if d.skipped < l.brkProbeAfter {
		return false
	}
	d.breaker = breakerHalfOpen
	d.skipped = 0
	l.publishBreaker(i)
	return true
}

// Admit is the breaker side of a dispatch, applied before the run executes:
// whenever a device-bound alternative was on offer every open breaker counts
// one admission routed around it, and a command landing on a half-open device
// is that device's probe.
func (l *Ledger) Admit(ch Choice) {
	if !ch.DeviceAsked || l.brkThreshold <= 0 {
		return
	}
	for i := range l.devs {
		l.pass(i)
	}
	if ch.Denied {
		l.metrics.Counter("sched.breaker.routed.host").Inc()
	}
	if ch.Dev >= 0 {
		l.probe(ch.Dev)
	}
}

// probe counts a command about to run on a half-open device.
func (l *Ledger) probe(dev int) {
	if l.devs[dev].breaker == breakerHalfOpen {
		l.metrics.Counter("sched.breaker.probe").Inc()
	}
}

// Book commits a finished dispatch: the chosen host lane and command slot are
// busy until done, the slot holding claim c.
func (l *Ledger) Book(ch Choice, c Claim, done vclock.Time) {
	if ch.Host >= 0 {
		l.host[ch.Host] = done
	}
	if ch.Dev >= 0 {
		l.devs[ch.Dev].slots[ch.Slot] = slot{until: done, claim: c}
		l.publishDev(ch.Dev, ch.Start)
	}
}

// AdmitDevice reserves a command slot on one specific device at instant at —
// fleet shard admission, where the descriptor pins partitions to devices. The
// slot must be free at that instant, the claim must fit beside the device's
// other occupants, and the breaker must let the command through; the slot is
// then held until ReleaseDevice books its completion. A denial is the fleet
// executor's signal to degrade that shard to host execution.
func (l *Ledger) AdmitDevice(dev int, at vclock.Time, c Claim) (int, bool) {
	if dev < 0 || dev >= len(l.devs) || !l.pass(dev) {
		return -1, false
	}
	d := &l.devs[dev]
	for j, s := range d.slots {
		if s.until <= at && l.fits(dev, at, c) {
			l.probe(dev)
			d.slots[j] = slot{until: vclock.Time(math.Inf(1)), claim: c}
			l.publishDev(dev, at)
			return j, true
		}
	}
	return -1, false
}

// ReleaseDevice ends a command admitted through AdmitDevice: its slot falls
// free at done and its outcome feeds the breaker.
func (l *Ledger) ReleaseDevice(dev, j int, done vclock.Time, ok bool) {
	l.devs[dev].slots[j].until = done
	l.Report(dev, ok)
}

// Report feeds one finished device command into the breaker: ok means the
// command completed on the device (a run that fell back to the host counts as
// a failure). Success resets the failure streak and closes a half-open
// breaker; failure extends the streak and trips (or re-opens) it.
func (l *Ledger) Report(dev int, ok bool) {
	if l.brkThreshold <= 0 || dev < 0 || dev >= len(l.devs) {
		return
	}
	d := &l.devs[dev]
	if ok {
		d.consecFails = 0
		if d.breaker != breakerClosed {
			d.breaker, d.skipped = breakerClosed, 0
			l.metrics.Counter("sched.breaker.recovered").Inc()
		}
	} else {
		d.consecFails++
		tripped := d.breaker == breakerClosed && d.consecFails >= l.brkThreshold
		if tripped {
			l.metrics.Counter("sched.breaker.tripped").Inc()
		}
		// A failed probe goes straight back to open without counting as a trip.
		if tripped || d.breaker == breakerHalfOpen {
			d.breaker, d.skipped = breakerOpen, 0
		}
	}
	l.publishBreaker(dev)
}

// busyAt reports what is still occupied on device i at instant t: command
// slots, and the claims their commands hold.
func (l *Ledger) busyAt(i int, t vclock.Time) (cmds int, held Claim) {
	for _, s := range l.devs[i].slots {
		if s.until > t {
			cmds++
			held.MemBytes += s.claim.MemBytes
			held.BufSlots += s.claim.BufSlots
		}
	}
	return cmds, held
}
