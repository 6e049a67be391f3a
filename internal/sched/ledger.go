package sched

import (
	"fmt"
	"math"

	"hybridndp/internal/obs"
	"hybridndp/internal/vclock"
)

// Breaker tuning: breakerThreshold consecutive command failures trip a
// device's breaker open, and breakerProbeAfter admissions routed around it
// make it half-open.
const (
	breakerThreshold  = 3
	breakerProbeAfter = 8
)

// devRow is one device's row of the ledger: the instant its one command slot
// falls free (the paper's COSMOS+ board dedicates one core to execution) and
// its circuit breaker. The breaker is count-based — breakerThreshold
// consecutive command failures open it, breakerProbeAfter admissions routed
// around it make it half-open, and the next command is the probe: success
// closes it, failure re-opens it.
// Outcomes are reported in dispatch order (a run executes at its dispatch),
// so the breaker never depends on anything but the sequence of dispatches.
type devRow struct {
	until       vclock.Time
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
// device the virtual instant it falls free, plus per device the circuit
// breaker. A lane is busy until its instant and free from then on, so nothing
// is ever "released": booking a run is writing its completion instant. Device
// memory is not tracked here: every candidate is already masked by its
// decision's memory plans, and the device checks each command at launch.
type Ledger struct {
	host []vclock.Time
	devs []devRow

	metrics *obs.Registry // nil disables counters and gauges
}

// NewLedger sizes the ledger: hostLanes host CPU lanes and devices
// smart-storage devices.
func NewLedger(hostLanes, devices int) *Ledger {
	return &Ledger{
		host: make([]vclock.Time, max(hostLanes, 1)),
		devs: make([]devRow, max(devices, 1)),
	}
}

// bindMetrics attaches a registry: breaker transitions count into it, and
// the host lane count and every device's breaker position are mirrored into
// gauges.
func (l *Ledger) bindMetrics(m *obs.Registry) {
	if m == nil {
		return
	}
	l.metrics = m
	m.Gauge("sched.ledger.host.lanes").SetInt(int64(len(l.host)))
	for i := range l.devs {
		l.publishBreaker(i)
	}
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
	return d.breaker != breakerOpen || d.skipped+1 >= breakerProbeAfter
}

// earliestDevice finds the device a device-bound run would take: over every
// breaker-passable device, the earliest start instant max(floor, until)
// (lowest device on ties); false when every breaker refuses.
func (l *Ledger) earliestDevice(floor vclock.Time) (dev int, start vclock.Time, ok bool) {
	for i := range l.devs {
		d := &l.devs[i]
		if !l.passable(d) {
			continue
		}
		if at := max(floor, d.until); !ok || at < start {
			dev, start, ok = i, at, true
		}
	}
	return dev, start, ok
}

// pass runs one admission past device i's breaker and reports whether it gets
// through. An open breaker counts the admission as routed around it and goes
// half-open once breakerProbeAfter of them accumulated.
func (l *Ledger) pass(i int) bool {
	d := &l.devs[i]
	if d.breaker != breakerOpen {
		return true
	}
	d.skipped++
	if d.skipped < breakerProbeAfter {
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
	if !ch.DeviceAsked {
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

// Book commits a finished dispatch: the chosen host lane and device are busy
// until done.
func (l *Ledger) Book(ch Choice, done vclock.Time) {
	if ch.Host >= 0 {
		l.host[ch.Host] = done
	}
	if ch.Dev >= 0 {
		l.devs[ch.Dev].until = done
	}
}

// AdmitDevice reserves one specific device at instant at — fleet shard
// admission, where the descriptor pins partitions to devices. The device must
// be free at that instant and its breaker must let the command through; it is
// then held until ReleaseDevice books its completion. A denial is the fleet
// executor's signal to degrade that shard to host execution.
func (l *Ledger) AdmitDevice(dev int, at vclock.Time) bool {
	if dev < 0 || dev >= len(l.devs) || !l.pass(dev) {
		return false
	}
	d := &l.devs[dev]
	if d.until > at {
		return false
	}
	l.probe(dev)
	d.until = vclock.Time(math.Inf(1))
	return true
}

// ReleaseDevice ends a command admitted through AdmitDevice: the device falls
// free at done and the outcome feeds the breaker.
func (l *Ledger) ReleaseDevice(dev int, done vclock.Time, ok bool) {
	l.devs[dev].until = done
	l.Report(dev, ok)
}

// Report feeds one finished device command into the breaker: ok means the
// command completed on the device (a run that fell back to the host counts as
// a failure). Success resets the failure streak and closes a half-open
// breaker; failure extends the streak and trips (or re-opens) it.
func (l *Ledger) Report(dev int, ok bool) {
	if dev < 0 || dev >= len(l.devs) {
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
		tripped := d.breaker == breakerClosed && d.consecFails >= breakerThreshold
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
