// Package vclock provides the virtual-time substrate for the hybridNDP
// simulator. Operators execute for real over real data, but instead of being
// timed with a wall clock they charge virtual durations to a Timeline at
// rates calibrated from the hardware model. Two timelines (host and device)
// advance independently; rendezvous points such as buffer handoffs are
// modelled with WaitUntil, which moves a consumer forward to the producer's
// timestamp and reports the stall, exactly mirroring the cooperative
// execution model of the paper (Fig. 17).
package vclock

import (
	"fmt"
	"time"
)

// Duration is a virtual duration in nanoseconds. It is kept as a float64 so
// that sub-nanosecond per-record costs accumulate without rounding to zero.
type Duration float64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Std converts a virtual duration to a time.Duration for display.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// FromStd converts a wall-clock duration into virtual nanoseconds. It is the
// only sanctioned crossing in that direction (the vtunits analyzer flags raw
// conversions); callers should have a stated reason to import measured wall
// time into virtual accounting, e.g. seeding a cost model from a calibration
// run.
func FromStd(d time.Duration) Duration { return Duration(d) }

func (d Duration) String() string { return d.Std().String() }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Time is a virtual instant: nanoseconds since the start of the execution.
type Time float64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// Timeline is one engine's private virtual clock plus a per-category cost
// account used for execution breakdowns (paper Table 4).
type Timeline struct {
	name string
	now  Time
	// account holds one booking per category charged so far, in first-charge
	// order. A timeline sees about a dozen categories, all of them constants,
	// and is charged several times per point lookup: a linear search over a
	// dense slice costs a few pointer compares where a map paid a string hash
	// and a bucket probe per charge.
	account []booking
}

type booking struct {
	category string
	total    Duration
}

// NewTimeline returns a timeline starting at virtual time zero.
func NewTimeline(name string) *Timeline { return &Timeline{name: name} }

// Name reports the timeline's label ("host" or "device").
func (tl *Timeline) Name() string { return tl.name }

// Now reports the current virtual instant.
func (tl *Timeline) Now() Time { return tl.now }

// book adds d to the category's total.
func (tl *Timeline) book(category string, d Duration) {
	for i := range tl.account {
		if tl.account[i].category == category {
			tl.account[i].total += d
			return
		}
	}
	tl.account = append(tl.account, booking{category, d})
}

// Charge advances the clock by d and books it under category.
func (tl *Timeline) Charge(category string, d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative charge %v to %s/%s", d, tl.name, category))
	}
	tl.now = tl.now.Add(d)
	tl.book(category, d)
}

// WaitUntil advances the clock to t if t is in the future, booking the gap
// under category (e.g. "wait.initial", "wait.slots"). It returns the stall
// duration (zero when no wait was needed).
func (tl *Timeline) WaitUntil(t Time, category string) Duration {
	if t <= tl.now {
		return 0
	}
	d := t.Sub(tl.now)
	tl.now = t
	tl.book(category, d)
	return d
}

// Account returns a copy of the per-category cost account.
func (tl *Timeline) Account() map[string]Duration {
	out := make(map[string]Duration, len(tl.account))
	for _, b := range tl.account {
		out[b.category] = b.total
	}
	return out
}
