package serve

import (
	"errors"
	"fmt"

	"hybridndp/internal/query"
	"hybridndp/internal/sql"
	"hybridndp/internal/table"
)

// Serving-layer admission errors. ErrQuotaExceeded is deliberately distinct
// from sched.ErrQueueFull: a quota rejection means THIS tenant's token bucket
// ran dry while the system may be idle; queue-full means the tenant's bounded
// queue (the shared-capacity signal) overflowed. Capacity planning treats the
// two very differently, so callers can errors.Is on each.
var ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")

// ErrDeadlineExceeded marks a request shed because it could not complete
// within its deadline (arrival + tenant SLO, when Config.UseDeadlines is on).
// It is distinct from ErrQuotaExceeded (the tenant's own token bucket ran
// dry), from sched.ErrQueueFull (bounded-queue backpressure) and from
// sched.ErrExpired (a scheduler ticket aged out on the wall clock): a
// deadline shed means the system was too loaded to finish the work in time,
// and chose not to start it — capacity planning reads it as an overload
// signal, not an admission-policy one.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// Prepared is one prepared statement: SQL text compiled to the logical query
// model and re-rendered to its canonical form, whose interned id is the
// plan-cache key shared by every session preparing an equivalent statement.
type Prepared struct {
	Name  string
	Query *query.Query
	Key   StmtID // PlanCache.Intern of the canonical SQL (sql.Render of the parsed query)
}

// Session is one tenant connection: SQL text in, prepared statements held by
// name, resolved against the loaded catalog and keyed in the shared plan
// cache. Sessions own no execution resources — they feed the server's shared
// plan cache and admission layers.
type Session struct {
	Tenant string

	cat   *table.Catalog
	cache *PlanCache
	stmts map[string]*Prepared
}

// NewSession opens a session for tenant over the catalog, preparing
// statements under cache's ids.
func NewSession(tenant string, cat *table.Catalog, cache *PlanCache) *Session {
	return &Session{Tenant: tenant, cat: cat, cache: cache, stmts: map[string]*Prepared{}}
}

// Prepare parses and validates text and stores it under name, replacing any
// previous statement with that name.
func (s *Session) Prepare(name, text string) (*Prepared, error) {
	p, err := s.compile(text)
	if err != nil {
		return nil, fmt.Errorf("serve: prepare %s for %s: %w", name, s.Tenant, err)
	}
	p.Name = name
	p.Query.Name = name
	s.stmts[name] = p
	return p, nil
}

// Stmt returns the prepared statement by name.
func (s *Session) Stmt(name string) (*Prepared, bool) {
	p, ok := s.stmts[name]
	return p, ok
}

func (s *Session) compile(text string) (*Prepared, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(s.cat); err != nil {
		return nil, err
	}
	// Canonicalize through the renderer: equivalent statements share cache
	// keys regardless of formatting, and the round-trip property guarantees
	// the canonical text still compiles to this exact query.
	norm, err := sql.Render(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{Name: q.Name, Query: q, Key: s.cache.Intern(norm)}, nil
}
