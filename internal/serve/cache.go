package serve

import (
	"container/list"

	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

type cacheEntry struct {
	key string
	dec *optimizer.Decision
	// lastUsed is the virtual instant of the most recent hit; the LRU list
	// order is exactly descending lastUsed, making eviction a pure function
	// of the virtual clock rather than of wall-clock insertion races.
	lastUsed vclock.Time
}

// PlanCache is the shared, bounded plan cache behind every session, keyed by
// normalized SQL (sql.Normalize's canonical rendering), so formatting-
// equivalent statements share an entry. The dataset is read-only and a
// decision does not depend on the fleet topology, so nothing else can make a
// cached plan stale.
// Eviction is strict LRU on virtual time. It is not internally synchronized:
// all access happens on the server's single-threaded event loop, which is
// also what keeps its obs counters byte-deterministic.
type PlanCache struct {
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used

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
		entries:   map[string]*list.Element{},
		lru:       list.New(),
		hits:      m.Counter("serve.cache.hit"),
		misses:    m.Counter("serve.cache.miss"),
		evictions: m.Counter("serve.cache.evict"),
		size:      m.Gauge("serve.cache.size"),
	}
}

// Get returns the cached decision for k, refreshing its LRU stamp to now.
func (c *PlanCache) Get(k string, now vclock.Time) (*optimizer.Decision, bool) {
	el, ok := c.entries[k]
	if !ok {
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
// entry when the cache is full. Re-putting an existing key refreshes it.
func (c *PlanCache) Put(k string, d *optimizer.Decision, now vclock.Time) {
	if el, ok := c.entries[k]; ok {
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
			delete(c.entries, victim.key)
			c.lru.Remove(back)
			c.evictions.Inc()
		}
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, dec: d, lastUsed: now})
	c.size.SetInt(int64(c.lru.Len()))
}

// Len reports the live entry count.
func (c *PlanCache) Len() int { return c.lru.Len() }

// Oldest reports the least-recently-used entry's key and virtual-time stamp
// (zero values when empty) — the next eviction victim.
func (c *PlanCache) Oldest() (string, vclock.Time, bool) {
	back := c.lru.Back()
	if back == nil {
		return "", 0, false
	}
	ent := back.Value.(*cacheEntry)
	return ent.key, ent.lastUsed, true
}
