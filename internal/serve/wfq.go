package serve

import (
	"hybridndp/internal/sched"
	"hybridndp/internal/vclock"
)

// request is one open-loop arrival flowing through admission → WFQ → lanes.
type request struct {
	tenant  int
	prio    sched.Priority
	arrival vclock.Time
	// cost is the request's host-path service estimate, the work unit the
	// deficit-round-robin scheduler charges against tenant deficits. Using
	// the same canonical cost for every placement keeps the fair-share
	// arithmetic independent of the policy under test.
	cost vclock.Duration
	prep *Prepared  // the tenant's prepared statement for the workload query
	qc   *QueryCost // the query's measured service times
}

// QueuedAt is the arrival instant the tenant queue ages requests by.
func (r *request) QueuedAt() vclock.Time { return r.arrival }

// tokenBucket enforces one tenant's admission quota on virtual time.
type tokenBucket struct {
	rate   float64 // tokens per virtual second; <= 0 disables the quota
	burst  float64
	tokens float64
	last   vclock.Time
}

func newTokenBucket(rate float64, burst int) tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// allow consumes one token at virtual instant now, refilling first.
func (b *tokenBucket) allow(now vclock.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// wfq is the cross-tenant weighted fair queue: classic deficit round robin
// over the per-tenant admission queues (sched.Queue: three priority classes,
// every fourth pop taking the oldest request regardless of class). Each visit
// to a backlogged tenant grants quantum×weight virtual nanoseconds of deficit;
// a tenant dispatches while its deficit covers the head request's canonical
// cost. Tenant order is the configuration order, so tie-breaking is
// deterministic by construction.
type wfq struct {
	qs      []*sched.Queue[*request]
	deficit []float64
	credit  []float64 // quantum × the tenant's weight
	rr      int
	total   int
}

// quantum is the DRR base quantum in virtual time.
const quantum = vclock.Millisecond

func newWFQ(tenants []TenantConfig, depth int) *wfq {
	w := &wfq{
		qs:      make([]*sched.Queue[*request], len(tenants)),
		deficit: make([]float64, len(tenants)),
		credit:  make([]float64, len(tenants)),
	}
	for i, tc := range tenants {
		w.qs[i] = sched.NewQueue[*request](depth)
		weight := tc.Weight
		if weight < 1 {
			weight = 1
		}
		w.credit[i] = float64(quantum) * float64(weight)
	}
	return w
}

// push enqueues r on its tenant's queue; false means that queue is full.
func (w *wfq) push(r *request) bool {
	if !w.qs[r.tenant].Push(r.prio, r) {
		return false
	}
	w.total++
	return true
}

// pick dispatches the next request under deficit round robin, or nil when
// every queue is empty. An empty tenant forfeits its deficit (standard DRR:
// idle tenants must not bank credit).
func (w *wfq) pick() *request {
	if w.total == 0 {
		return nil
	}
	for {
		ti := w.rr % len(w.qs)
		tq := w.qs[ti]
		head, ok := tq.Peek()
		if !ok {
			w.deficit[ti] = 0
			w.rr++
			continue
		}
		if w.deficit[ti] < float64(head.cost) {
			w.deficit[ti] += w.credit[ti]
			w.rr++
			continue
		}
		w.deficit[ti] -= float64(head.cost)
		w.total--
		tq.Pop()
		return head
	}
}
