package sched

import (
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
	// device whose command slots hold the given occupants; caps 100 B / 4.
	ledger := func(hostFree []vclock.Time, slots ...slot) *Ledger {
		return &Ledger{host: hostFree, devs: []devRow{{slots: slots}}, memCap: 100, bufCap: 4}
	}
	open := func(l *Ledger) *Ledger {
		for i := range l.devs {
			l.devs[i].breaker = breakerOpen
		}
		return l
	}
	type want struct {
		strat     coop.Strategy
		host, dev int
		slot      int
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
			l:     ledger([]vclock.Time{0}, slot{}),
			cands: []Candidate{{Strategy: ndp, Service: 10}, {Strategy: host, Service: 10}},
			want:  want{strat: host, host: 0, dev: -1, slot: -1},
		},
		{
			name:  "earliest completion wins over the cheaper service",
			l:     ledger([]vclock.Time{0}, slot{until: 50}),
			cands: []Candidate{{Strategy: host, Service: 30}, {Strategy: ndp, Service: 10}},
			want:  want{strat: host, host: 0, dev: -1, slot: -1},
		},
		{
			name:  "a busy host sends work to the device",
			l:     ledger([]vclock.Time{40, 25}, slot{until: 5}),
			now:   10,
			cands: []Candidate{{Strategy: host, Service: 30}, {Strategy: ndp, Service: 40}},
			want:  want{strat: ndp, host: -1, dev: 0, slot: 0, start: 10},
		},
		{
			name:  "hybrid holds a host lane and a device slot from the later of the two",
			l:     ledger([]vclock.Time{30, 20}, slot{until: 25}),
			cands: []Candidate{{Strategy: host, Service: 100}, {Strategy: h2, Service: 10}},
			want:  want{strat: h2, host: 1, dev: 0, slot: 0, start: 25},
		},
		{
			name:  "forced NDP ignores completion",
			l:     ledger([]vclock.Time{0}, slot{until: 500}),
			cands: []Candidate{{Strategy: host, Service: 1}, {Strategy: h2, Service: 1}, {Strategy: ndp, Service: 1}},
			pol:   ForceNDP,
			want:  want{strat: ndp, host: -1, dev: 0, slot: 0, start: 500},
		},
		{
			name:  "forced NDP on an infeasible plan runs on the host",
			l:     ledger([]vclock.Time{0}, slot{}),
			cands: []Candidate{{Strategy: host, Service: 9}, {Strategy: h2, Service: 1}},
			pol:   ForceNDP,
			want:  want{strat: host, host: 0, dev: -1, slot: -1},
		},
		{
			name:  "forced host never looks at the device",
			l:     ledger([]vclock.Time{7}, slot{}),
			cands: []Candidate{{Strategy: host, Service: 9}, {Strategy: ndp, Service: 1}},
			pol:   ForceHost,
			want:  want{strat: host, host: 0, dev: -1, slot: -1, start: 7},
		},
		{
			name:  "every breaker open routes to the host",
			l:     open(ledger([]vclock.Time{0}, slot{})),
			cands: []Candidate{{Strategy: host, Service: 90}, {Strategy: ndp, Service: 1}},
			want:  want{strat: host, host: 0, dev: -1, slot: -1, denied: true},
		},
		{
			name:  "every breaker open routes forced NDP to the host too",
			l:     open(ledger([]vclock.Time{0}, slot{})),
			cands: []Candidate{{Strategy: host, Service: 90}, {Strategy: ndp, Service: 1}},
			pol:   ForceNDP,
			want:  want{strat: host, host: 0, dev: -1, slot: -1, denied: true},
		},
		{
			name: "a claim that does not fit beside the occupant still busy at the start goes to the next candidate",
			l: ledger([]vclock.Time{0},
				slot{until: 5}, slot{until: 90, claim: Claim{MemBytes: 60, BufSlots: 1}}),
			cands: []Candidate{
				{Strategy: host, Service: 80},
				{Strategy: ndp, Service: 10, Claim: Claim{MemBytes: 50, BufSlots: 1}},
				{Strategy: h2, Service: 20, Claim: Claim{MemBytes: 40, BufSlots: 1}},
			},
			want: want{strat: h2, host: 0, dev: 0, slot: 0, start: 5},
		},
		{
			name: "the same claim fits once the occupant has left",
			l: ledger([]vclock.Time{0},
				slot{until: 95, claim: Claim{MemBytes: 60, BufSlots: 1}}, slot{until: 20}),
			cands: []Candidate{
				{Strategy: host, Service: 200},
				{Strategy: ndp, Service: 10, Claim: Claim{MemBytes: 50, BufSlots: 1}},
			},
			want: want{strat: ndp, host: -1, dev: 0, slot: 0, start: 95},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := *tc.l
			ch := Place(tc.l, tc.now, tc.cands, tc.pol)
			if ch.Index < 0 {
				t.Fatalf("nothing placed: %+v", ch)
			}
			c := tc.cands[ch.Index]
			got := want{strat: c.Strategy, host: ch.Host, dev: ch.Dev, slot: ch.Slot, start: ch.Start, denied: ch.Denied}
			if got != tc.want {
				t.Fatalf("placed %+v, want %+v", got, tc.want)
			}
			if ch.Done != ch.Start.Add(c.Service) {
				t.Fatalf("completion %v is not start %v + service %v", ch.Done, ch.Start, c.Service)
			}
			if d := tc.l.devs[0]; d.skipped != before.devs[0].skipped || d.breaker != before.devs[0].breaker {
				t.Fatal("Place changed the ledger")
			}
		})
	}
}
