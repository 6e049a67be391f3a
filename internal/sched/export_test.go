package sched

import (
	"hybridndp/internal/coop"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
)

// LiveCandidates returns the alternatives the live runner offers q under
// policy, for tests outside the package.
func LiveCandidates(opt *optimizer.Optimizer, x *coop.Executor, policy Policy, q *query.Query) ([]Candidate, error) {
	r := newLive(opt, x, NewLedger(1, 1), Config{Policy: policy})
	return r.Candidates(&Ticket{query: q}, 0, nil)
}
