package hybridndp

import (
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/job"
	"hybridndp/internal/vclock"
)

// Shape tests: the reproduction's pass criteria are relative orderings (who
// wins, where crossovers fall), not absolute times. These assert the
// headline shapes of the paper's figures at the shared test scale.

// elapsedFor runs the query under a strategy and returns the virtual time.
func elapsedFor(t *testing.T, s *System, p *exec.Plan, st coop.Strategy) vclock.Duration {
	t.Helper()
	rep, err := s.Executor.Run(p, st)
	if err != nil {
		t.Fatalf("%v: %v", st, err)
	}
	return rep.Elapsed
}

func TestShapeFig2FullNDPWorstInteriorBest(t *testing.T) {
	s := testSystem(t)
	q := job.QueryByName("8c")
	p, err := s.Optimizer.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	host := elapsedFor(t, s, p, coop.Strategy{Kind: coop.HostNative})
	ndp := elapsedFor(t, s, p, coop.Strategy{Kind: coop.NDPOnly})
	if ndp <= host {
		t.Fatalf("Fig 2 shape: full NDP (%v) must be slower than host-only (%v) on Q8.c", ndp, host)
	}
	best := ndp
	for _, st := range coop.Splits(p) {
		if d := elapsedFor(t, s, p, st); d < best {
			best = d
		}
	}
	if best >= host {
		t.Fatalf("Fig 2 shape: the best hybrid (%v) must beat host-only (%v)", best, host)
	}
}

func TestShapeFig11HybridBeatsBaselines(t *testing.T) {
	s := testSystem(t)
	for _, name := range []string{"8c", "17b", "32b"} {
		q := job.QueryByName(name)
		p, err := s.Optimizer.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		blk := elapsedFor(t, s, p, coop.Strategy{Kind: coop.BlockOnly})
		nat := elapsedFor(t, s, p, coop.Strategy{Kind: coop.HostNative})
		if blk <= nat {
			t.Fatalf("%s: BLK (%v) must be slower than NATIVE (%v)", name, blk, nat)
		}
		best := blk
		for _, st := range coop.Splits(p) {
			if d := elapsedFor(t, s, p, st); d < best {
				best = d
			}
		}
		if best >= nat {
			t.Fatalf("%s: hybridNDP's best split (%v) must beat NATIVE (%v)", name, best, nat)
		}
	}
}

func TestShapeFig14DeviceWinsNonIndexedJoin(t *testing.T) {
	s := testSystem(t)
	q := job.Listing2(int32(s.JOB.Counts["movie_link"]/3), true)
	p, err := s.Optimizer.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	p = p.Clone() // the optimizer's plan is shared
	for i := range p.Steps {
		p.Steps[i].Type = exec.BNL
	}
	nat := elapsedFor(t, s, p, coop.Strategy{Kind: coop.HostNative})
	ndp := elapsedFor(t, s, p, coop.Strategy{Kind: coop.NDPOnly})
	if ndp >= nat {
		t.Fatalf("Fig 14 shape: NDP (%v) must beat the native stack (%v) on the Listing 2 join", ndp, nat)
	}
}

func TestShapeFig17OverlapAfterInitialWait(t *testing.T) {
	s := testSystem(t)
	q := job.QueryByName("8d")
	p, err := s.Optimizer.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	split := 2
	if len(p.Steps) < 2 {
		split = len(p.Steps)
	}
	rep, err := s.Executor.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: split})
	if err != nil {
		t.Fatal(err)
	}
	// An initial wait exists (the device computes the first result set),
	// and later waits are a small fraction of it (overlap works).
	if rep.WaitInitial() <= 0 {
		t.Fatal("Fig 17 shape: no initial device wait recorded")
	}
	if rep.WaitFetch() > rep.WaitInitial() {
		t.Fatalf("Fig 17 shape: later waits (%v) exceed the initial wait (%v) — no overlap",
			rep.WaitFetch(), rep.WaitInitial())
	}
}

func TestShapeDecisionNeverPicksDominatedFullNDP(t *testing.T) {
	// The optimizer must not choose full NDP for the deep marquee queries
	// where the paper shows it losing badly.
	s := testSystem(t)
	for _, name := range []string{"8c", "8d", "17b"} {
		d, err := s.Decide(job.QueryByName(name))
		if err != nil {
			t.Fatal(err)
		}
		if d.NDP {
			t.Fatalf("%s: optimizer chose full NDP (%s)", name, d.Reason)
		}
	}
}
