package serve

import (
	"container/list"

	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

type cacheEntry struct {
	key StmtID
	dec *optimizer.Decision
	// lastUsed is the virtual instant of the most recent hit; the LRU list
	// order is exactly descending lastUsed, making eviction a pure function
	// of the virtual clock rather than of wall-clock insertion races.
	lastUsed vclock.Time
}

// StmtID is a prepared statement's plan-cache key: the id its normalized SQL
// (sql.Render's canonical rendering) was interned under, so formatting-
// equivalent statements of any session share an entry and a lookup never
// hashes the text. Interned ids start at 1: the zero StmtID, a statement no
// cache prepared, always misses.
type StmtID int32

// PlanCache is the shared plan cache behind every session, keyed by interned
// statement ids (Intern). Its capacity bounds the plans it holds, not the
// interned texts: those grow with the distinct statements prepared. The dataset is read-only and a decision
// does not depend on the fleet topology, so nothing else can make a cached
// plan stale.
// Eviction is strict LRU on virtual time. It is not internally synchronized:
// all access happens on the server's single-threaded event loop, which is
// also what keeps its obs counters byte-deterministic.
type PlanCache struct {
	capacity int
	ids      map[string]StmtID // normalized SQL → its id, the next id being len(entries)
	entries  []*list.Element   // by id; nil = not cached; entries[0] stays nil
	lru      *list.List        // front = most recently used

	hits, misses, evictions *obs.Counter
	size                    *obs.Gauge
}

// NewPlanCache returns an empty cache holding at most capacity plans,
// reporting hit/miss/eviction counters and a size gauge into m (which may be
// nil for a metric-less cache).
func NewPlanCache(capacity int, m *obs.Registry) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity:  capacity,
		ids:       map[string]StmtID{},
		entries:   make([]*list.Element, 1),
		lru:       list.New(),
		hits:      m.Counter("serve.cache.hit"),
		misses:    m.Counter("serve.cache.miss"),
		evictions: m.Counter("serve.cache.evict"),
		size:      m.Gauge("serve.cache.size"),
	}
}

// Intern returns the id of normalized SQL text norm, the next unused one the
// first time the cache sees the text. Statements are prepared once and served
// many times, so the table of texts is never pruned: eviction drops a plan,
// not its statement's id.
func (c *PlanCache) Intern(norm string) StmtID {
	if id, ok := c.ids[norm]; ok {
		return id
	}
	id := StmtID(len(c.entries))
	c.ids[norm] = id
	c.entries = append(c.entries, nil)
	return id
}

// Get returns the cached decision for k, refreshing its LRU stamp to now. An
// id this cache did not intern misses.
func (c *PlanCache) Get(k StmtID, now vclock.Time) (*optimizer.Decision, bool) {
	var el *list.Element
	if c.interned(k) {
		el = c.entries[k]
	}
	if el == nil {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	ent := el.Value.(*cacheEntry)
	ent.lastUsed = now
	c.lru.MoveToFront(el)
	return ent.dec, true
}

// Put inserts d under k (stamped now), evicting the least-recently-used
// entry when the cache is full. Re-putting an existing key refreshes it; an
// id this cache did not intern has no slot, and d is not cached.
func (c *PlanCache) Put(k StmtID, d *optimizer.Decision, now vclock.Time) {
	if !c.interned(k) {
		return
	}
	if el := c.entries[k]; el != nil {
		ent := el.Value.(*cacheEntry)
		ent.dec = d
		ent.lastUsed = now
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		if back != nil {
			victim := back.Value.(*cacheEntry)
			c.entries[victim.key] = nil
			c.lru.Remove(back)
			c.evictions.Inc()
		}
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, dec: d, lastUsed: now})
	c.size.SetInt(int64(c.lru.Len()))
}

// interned reports whether k is an id Intern handed out.
func (c *PlanCache) interned(k StmtID) bool { return k > 0 && int(k) < len(c.entries) }

// Len reports the live entry count.
func (c *PlanCache) Len() int { return c.lru.Len() }

// Oldest reports the least-recently-used entry's key and virtual-time stamp
// (zero values when empty) — the next eviction victim.
func (c *PlanCache) Oldest() (StmtID, vclock.Time, bool) {
	back := c.lru.Back()
	if back == nil {
		return 0, 0, false
	}
	ent := back.Value.(*cacheEntry)
	return ent.key, ent.lastUsed, true
}
