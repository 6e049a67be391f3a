package sched

import (
	"hybridndp/internal/coop"
	"hybridndp/internal/vclock"
)

// Policy selects how Place chooses among the alternatives on offer.
type Policy int

const (
	// Adaptive is the hybridNDP serving mode: the alternative that completes
	// earliest under the current load wins. On an idle system that is the
	// cheapest strategy; as the device's command slot fills up, device-bound
	// alternatives start later and the choice drifts toward the host — and
	// back, when the host lanes are the busy ones.
	Adaptive Policy = iota
	// ForceHost routes everything host-native (the always-host baseline).
	ForceHost
	// ForceNDP offloads every feasible plan fully, serializing on the device
	// command slots (the always-NDP baseline).
	ForceNDP
)

func (p Policy) String() string {
	switch p {
	case Adaptive:
		return "adaptive"
	case ForceHost:
		return "host"
	case ForceNDP:
		return "ndp"
	}
	return "Policy(?)"
}

// Candidate is one execution alternative a Runner offers for a job.
type Candidate struct {
	Strategy coop.Strategy
	// Service is how long the run occupies its lanes: the replayed measured
	// time, or the live runner's priced estimate.
	Service vclock.Duration
}

// onDevice reports whether the alternative needs an NDP command slot.
func (c *Candidate) onDevice() bool {
	return c.Strategy.Kind == coop.Hybrid || c.Strategy.Kind == coop.NDPOnly
}

// onHost reports whether the alternative needs a host lane. A cooperative run
// holds one beside its command slot: the host side drives the device and
// merges above the split.
func (c *Candidate) onHost() bool { return c.Strategy.Kind != coop.NDPOnly }

// Choice is one placement: which alternative, on which lanes, from when.
type Choice struct {
	// Index is the chosen candidate (-1 when none was offered).
	Index int
	// Host is the host lane and Dev the device the run occupies; -1 marks a
	// side the strategy does not use.
	Host, Dev int
	// Start is the earliest instant every lane the run needs is free; Done is
	// Start plus the candidate's service time.
	Start, Done vclock.Time
	// DeviceAsked records that a device-bound alternative was considered, and
	// Denied that every device's circuit breaker refused it.
	DeviceAsked, Denied bool
}

// Place is the one placement rule. Each candidate starts at the earliest
// instant all the lanes it needs are free — the host lane that frees up
// first, and for a device-bound run the device that falls free first among
// those whose breaker lets it through — and the candidate that completes
// earliest wins, ties going to the host. The forced policies narrow the field
// first: ForceHost to the host-only candidates, ForceNDP to full NDP whenever
// it is on offer and placeable. Place reads the ledger and changes nothing.
func Place(l *Ledger, now vclock.Time, cands []Candidate, pol Policy) Choice {
	best := Choice{Index: -1, Host: -1, Dev: -1}
	hostLane, hostFree := l.earliestHost()
	asked, denied := false, false
	for i := range cands {
		c := &cands[i]
		ch := Choice{Index: i, Host: -1, Dev: -1, Start: now}
		if c.onHost() {
			ch.Host, ch.Start = hostLane, max(now, hostFree)
		}
		if c.onDevice() {
			if pol == ForceHost || (pol == ForceNDP && c.Strategy.Kind != coop.NDPOnly) {
				continue
			}
			asked = true
			dev, start, ok := l.earliestDevice(ch.Start)
			if !ok {
				denied = true // every breaker refuses: no device-bound candidate places
				continue
			}
			ch.Dev, ch.Start = dev, start
		}
		ch.Done = ch.Start.Add(c.Service)
		if pol == ForceNDP && ch.Dev >= 0 {
			best = ch
			break
		}
		if best.Index < 0 || ch.Done < best.Done || (ch.Done == best.Done && ch.Dev < 0 && best.Dev >= 0) {
			best = ch
		}
	}
	best.DeviceAsked, best.Denied = asked, denied
	return best
}
