package sched

import (
	"slices"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/vclock"
)

// TestPlace drives the one placement rule over hand-built loads.
func TestPlace(t *testing.T) {
	var (
		host = coop.Strategy{Kind: coop.HostNative}
		h2   = coop.Strategy{Kind: coop.Hybrid, Split: 2}
		ndp  = coop.Strategy{Kind: coop.NDPOnly}
	)
	// ledger builds a load with the given host-lane free instants and one
	// device per given device free instant.
	ledger := func(hostFree []vclock.Time, devFree ...vclock.Time) *Ledger {
		l := &Ledger{host: hostFree, devs: make([]devRow, len(devFree))}
		for i, until := range devFree {
			l.devs[i].until = until
		}
		return l
	}
	open := func(l *Ledger, devs ...int) *Ledger {
		for _, i := range devs {
			l.devs[i].breaker = breakerOpen
		}
		return l
	}
	type want struct {
		strat     coop.Strategy
		host, dev int
		start     vclock.Time
		denied    bool
	}
	for _, tc := range []struct {
		name  string
		l     *Ledger
		now   vclock.Time
		cands []Candidate
		pol   Policy
		want  want
	}{
		{
			name:  "tie goes to the host",
			l:     ledger([]vclock.Time{0}, 0),
			cands: []Candidate{{Strategy: ndp, Service: 10}, {Strategy: host, Service: 10}},
			want:  want{strat: host, host: 0, dev: -1},
		},
		{
			name:  "earliest completion wins over the cheaper service",
			l:     ledger([]vclock.Time{0}, 50),
			cands: []Candidate{{Strategy: host, Service: 30}, {Strategy: ndp, Service: 10}},
			want:  want{strat: host, host: 0, dev: -1},
		},
		{
			name:  "a busy host sends work to the device",
			l:     ledger([]vclock.Time{40, 25}, 5),
			now:   10,
			cands: []Candidate{{Strategy: host, Service: 30}, {Strategy: ndp, Service: 40}},
			want:  want{strat: ndp, host: -1, dev: 0, start: 10},
		},
		{
			name:  "hybrid holds a host lane and a device slot from the later of the two",
			l:     ledger([]vclock.Time{30, 20}, 25),
			cands: []Candidate{{Strategy: host, Service: 100}, {Strategy: h2, Service: 10}},
			want:  want{strat: h2, host: 1, dev: 0, start: 25},
		},
		{
			name:  "forced NDP ignores completion",
			l:     ledger([]vclock.Time{0}, 500),
			cands: []Candidate{{Strategy: host, Service: 1}, {Strategy: h2, Service: 1}, {Strategy: ndp, Service: 1}},
			pol:   ForceNDP,
			want:  want{strat: ndp, host: -1, dev: 0, start: 500},
		},
		{
			name:  "forced NDP on an infeasible plan runs on the host",
			l:     ledger([]vclock.Time{0}, 0),
			cands: []Candidate{{Strategy: host, Service: 9}, {Strategy: h2, Service: 1}},
			pol:   ForceNDP,
			want:  want{strat: host, host: 0, dev: -1},
		},
		{
			name:  "forced host never looks at the device",
			l:     ledger([]vclock.Time{7}, 0),
			cands: []Candidate{{Strategy: host, Service: 9}, {Strategy: ndp, Service: 1}},
			pol:   ForceHost,
			want:  want{strat: host, host: 0, dev: -1, start: 7},
		},
		{
			name:  "every breaker open routes to the host",
			l:     open(ledger([]vclock.Time{0}, 0), 0),
			cands: []Candidate{{Strategy: host, Service: 90}, {Strategy: ndp, Service: 1}},
			want:  want{strat: host, host: 0, dev: -1, denied: true},
		},
		{
			name:  "every breaker open routes forced NDP to the host too",
			l:     open(ledger([]vclock.Time{0}, 0), 0),
			cands: []Candidate{{Strategy: host, Service: 90}, {Strategy: ndp, Service: 1}},
			pol:   ForceNDP,
			want:  want{strat: host, host: 0, dev: -1, denied: true},
		},
		{
			name:  "the device that falls free first wins",
			l:     ledger([]vclock.Time{100}, 30, 20),
			cands: []Candidate{{Strategy: host, Service: 50}, {Strategy: ndp, Service: 10}},
			want:  want{strat: ndp, host: -1, dev: 1, start: 20},
		},
		{
			name:  "a device tie goes to the lower index",
			l:     ledger([]vclock.Time{100}, 20, 20),
			cands: []Candidate{{Strategy: host, Service: 50}, {Strategy: ndp, Service: 10}},
			want:  want{strat: ndp, host: -1, dev: 0, start: 20},
		},
		{
			name:  "an open breaker is skipped",
			l:     open(ledger([]vclock.Time{100}, 0, 20), 0),
			cands: []Candidate{{Strategy: host, Service: 50}, {Strategy: ndp, Service: 10}},
			want:  want{strat: ndp, host: -1, dev: 1, start: 20},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := slices.Clone(tc.l.devs)
			ch := Place(tc.l, tc.now, tc.cands, tc.pol)
			if ch.Index < 0 {
				t.Fatalf("nothing placed: %+v", ch)
			}
			c := tc.cands[ch.Index]
			got := want{strat: c.Strategy, host: ch.Host, dev: ch.Dev, start: ch.Start, denied: ch.Denied}
			if got != tc.want {
				t.Fatalf("placed %+v, want %+v", got, tc.want)
			}
			if ch.Done != ch.Start.Add(c.Service) {
				t.Fatalf("completion %v is not start %v + service %v", ch.Done, ch.Start, c.Service)
			}
			for i, d := range tc.l.devs {
				if d != before[i] {
					t.Fatal("Place changed the ledger")
				}
			}
		})
	}
}
