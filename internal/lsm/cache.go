package lsm

import (
	"sync"
	"unsafe"

	"hybridndp/internal/flash"
)

// BlockCache is an LRU cache of decoded data blocks, the equivalent of the
// RocksDB block cache on the host and of the on-device data-block buffer
// inside the NDP engine's temporary-storage reservation. A cache hit avoids
// the flash read entirely; the reading engine charges only the in-memory
// copy. Each engine owns its cache (host: large, bounded by hw_MSH; device:
// small, part of the 520 MB temporary storage), and executions start cold so
// strategy comparisons are order-independent.
type BlockCache struct {
	mu   sync.Mutex
	cap  int64 // set by NewBlockCache and Reset, never while the cache is in use
	used int64 // guarded by mu

	// The LRU list lives in a slab of index-linked nodes beside the map: node
	// 0 is the ring's sentinel (its next is the most recently used block, its
	// prev the eviction victim) and evicted nodes are reused through free. The
	// slab grows a chunk at a time and never moves, so a run's cold cache
	// allocates a node's worth per block and nothing per re-Put.
	chunks [][]cacheNode      // guarded by mu; node i is chunks[i/cacheChunk][i%cacheChunk]
	n      int32              // guarded by mu; nodes handed out, sentinel included
	free   int32              // guarded by mu; head of the free chain through next, 0 = none
	m      map[blockKey]int32 // guarded by mu

	hits   int64 // guarded by mu
	misses int64 // guarded by mu
}

type blockKey struct {
	file  flash.FileID
	block int
}

type cacheNode struct {
	key        blockKey
	entries    []Entry
	bytes      int64
	prev, next int32
}

// cacheChunk is the slab's growth step, in nodes: small, because most of a
// fleet run's cold caches see a handful of blocks and a chunk is their floor.
const cacheChunk = 8

// NewBlockCache creates a cache bounded to capacity bytes (≤0 disables it).
func NewBlockCache(capacity int64) *BlockCache {
	return &BlockCache{cap: capacity, m: make(map[blockKey]int32)}
}

// Reset empties the cache and bounds it to capacity bytes (≤0 disables it).
// From then on it answers every Get and Put — hits, misses, evictions, Stats —
// exactly as NewBlockCache(capacity) would, but it keeps its map's buckets and
// its node slab for the blocks to come, and drops every block it held. A
// recycled engine scratch resets its cache this way, so every run still starts
// cold. Reset must not run concurrently with any other use of the cache.
func (c *BlockCache) Reset(capacity int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.chunks[:(int(c.n)+cacheChunk-1)/cacheChunk] {
		clear(ch)
	}
	clear(c.m)
	c.cap, c.used, c.n, c.free, c.hits, c.misses = capacity, 0, 0, 0, 0, 0
}

// Retained reports the bytes the cache keeps across Reset: its node slab plus
// an estimate of its map's buckets (at most one entry per node, 32 bytes
// each). The blocks it caches are not counted; Reset drops them.
func (c *BlockCache) Retained() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.chunks)*cacheChunk) * (int64(unsafe.Sizeof(cacheNode{})) + 32)
}

func (c *BlockCache) nodeLocked(i int32) *cacheNode {
	return &c.chunks[i/cacheChunk][i%cacheChunk]
}

// touchLocked makes node i the most recently used, unlinking it first when
// it is already in the ring.
func (c *BlockCache) touchLocked(i int32, linked bool) {
	n, head := c.nodeLocked(i), c.nodeLocked(0)
	if linked {
		c.nodeLocked(n.prev).next, c.nodeLocked(n.next).prev = n.next, n.prev
	}
	n.prev, n.next = 0, head.next
	c.nodeLocked(head.next).prev = i
	head.next = i
}

// Get returns the cached block, if present.
func (c *BlockCache) Get(file flash.FileID, block int) ([]Entry, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.m[blockKey{file, block}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.touchLocked(i, true)
	c.hits++
	return c.nodeLocked(i).entries, true
}

// Put inserts a decoded block, evicting LRU entries as needed.
func (c *BlockCache) Put(file flash.FileID, block int, entries []Entry, rawBytes int64) {
	if c == nil || c.cap <= 0 || rawBytes > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{file, block}
	if i, ok := c.m[k]; ok {
		c.touchLocked(i, true)
		return
	}
	if c.n == 0 { // the sentinel, in a chunk a Reset kept or a new one
		if len(c.chunks) == 0 {
			c.chunks = append(c.chunks, make([]cacheNode, cacheChunk))
		}
		c.n = 1
	}
	for c.used+rawBytes > c.cap && c.nodeLocked(0).prev != 0 {
		back := c.nodeLocked(0).prev
		victim := c.nodeLocked(back)
		c.used -= victim.bytes
		delete(c.m, victim.key)
		c.nodeLocked(victim.prev).next, c.nodeLocked(0).prev = 0, victim.prev
		*victim = cacheNode{next: c.free} // drops the block
		c.free = back
	}
	i := c.free
	if i != 0 {
		c.free = c.nodeLocked(i).next
	} else {
		if i = c.n; int(i) == len(c.chunks)*cacheChunk {
			c.chunks = append(c.chunks, make([]cacheNode, cacheChunk))
		}
		c.n++
	}
	*c.nodeLocked(i) = cacheNode{key: k, entries: entries, bytes: rawBytes}
	c.touchLocked(i, false)
	c.m[k] = i
	c.used += rawBytes
}

// Stats reports hit/miss counters and occupancy.
func (c *BlockCache) Stats() (hits, misses, used int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used
}
