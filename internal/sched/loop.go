package sched

import "hybridndp/internal/vclock"

// Runner is how a placed job executes. There are two: the serving front
// door's replay runner offers the alternatives whose service times it has
// measured and "runs" by handing that time back, and the live runner offers
// every feasible strategy priced by the cost model and executes the chosen
// one for real at dispatch.
type Runner[J any] interface {
	// Candidates appends the alternatives for j, as of instant now, to
	// buf[:0] — the loop owns buf and recycles it, so offering allocates
	// nothing. The host-native alternative is always among them. A job that
	// cannot be planned at all fails here and goes straight to Front.Done.
	Candidates(j J, now vclock.Time, buf []Candidate) ([]Candidate, error)
	// Run executes candidate c as placed by ch and returns how long it
	// occupied its lanes.
	Run(j J, c Candidate, ch Choice) (vclock.Duration, error)
}

// Front is where a loop's jobs come from and where their outcomes go: the
// scheduler's single admission queue, or the front door's tenants behind
// deficit round robin.
type Front[J any] interface {
	// Pick removes the next job to dispatch; false when nothing is queued.
	Pick(now vclock.Time) (J, bool)
	// Admit sees a picked job's placement before it is held for dispatch and
	// may reject it (a queue wait past its limit, a completion past its
	// deadline); the front accounts for a job it rejects.
	Admit(j J, c Candidate, ch Choice) bool
	// Done receives a job's outcome: how long its run took, or the error
	// that failed the run — or failed planning it, in which case nothing was
	// placed and ch.Index is -1.
	Done(j J, c Candidate, ch Choice, elapsed vclock.Duration, err error)
}

// Loop is the scheduler: a single-threaded discrete-event loop on virtual
// time, progressed by its caller. It picks the front's next job, places it
// with Place against the ledger, holds it until its start instant, dispatches
// it through the runner and books the lanes until start plus the elapsed time
// the runner reports. One job is held at a time — the head of the line waits
// for its lanes — and lane frees only ever move later, so a held placement
// stays exact however many external events are admitted before it starts.
type Loop[J any] struct {
	ledger *Ledger
	policy Policy
	runner Runner[J]
	front  Front[J]

	now  vclock.Time
	last vclock.Time // latest completion instant booked so far

	held   bool
	job    J
	cand   Candidate
	choice Choice
	buf    []Candidate
}

// NewLoop assembles a loop at virtual instant zero.
func NewLoop[J any](l *Ledger, pol Policy, r Runner[J], f Front[J]) *Loop[J] {
	return &Loop[J]{ledger: l, policy: pol, runner: r, front: f}
}

// Now reports the loop's clock: the latest dispatch or external event.
func (l *Loop[J]) Now() vclock.Time { return l.now }

// Makespan reports the last completion instant booked so far.
func (l *Loop[J]) Makespan() vclock.Duration { return vclock.Duration(l.last) }

// hold makes sure a job is picked and placed; false means the front is empty.
func (l *Loop[J]) hold() bool {
	for !l.held {
		j, ok := l.front.Pick(l.now)
		if !ok {
			return false
		}
		cands, err := l.runner.Candidates(j, l.now, l.buf[:0])
		if err != nil {
			l.front.Done(j, Candidate{}, Choice{Index: -1, Host: -1, Dev: -1, Slot: -1}, 0, err)
			continue
		}
		l.buf = cands
		l.choice = Place(l.ledger, l.now, cands, l.policy)
		l.cand = cands[l.choice.Index]
		if l.front.Admit(j, l.cand, l.choice) {
			l.held, l.job = true, j
		}
	}
	return true
}

// dispatch starts the held job at its start instant.
func (l *Loop[J]) dispatch() {
	var zero J
	j, c, ch := l.job, &l.cand, &l.choice
	l.held, l.job = false, zero
	l.now = max(l.now, ch.Start)
	l.ledger.Admit(*ch)
	elapsed, err := l.runner.Run(j, *c, *ch)
	done := ch.Start.Add(elapsed)
	l.ledger.Book(*ch, c.Claim, done)
	l.last = max(l.last, done)
	l.front.Done(j, *c, *ch, elapsed, err)
}

// Step dispatches the next job, advancing the clock to its start instant;
// false means nothing was queued.
func (l *Loop[J]) Step() bool {
	ok := l.hold()
	if ok {
		l.dispatch()
	}
	return ok
}

// Drain steps until the front is empty.
func (l *Loop[J]) Drain() {
	for l.Step() {
	}
}

// AdvanceTo brings the loop to an external event at instant t: every job
// whose start instant lies strictly before t is dispatched (the event wins a
// tie), then the clock moves to t.
func (l *Loop[J]) AdvanceTo(t vclock.Time) {
	for l.hold() && l.choice.Start < t {
		l.dispatch()
	}
	l.now = max(l.now, t)
}
