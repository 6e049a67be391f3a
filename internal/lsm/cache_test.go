package lsm

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"

	"hybridndp/internal/flash"
)

// listCache is the container/list LRU the slab replaced, kept as the model:
// which block a Put evicts decides which later reads are charged as flash, so
// the slab must reproduce its hit/miss/eviction sequence exactly.
type listCache struct {
	cap, used    int64
	lru          *list.List
	m            map[blockKey]*list.Element
	hits, misses int64
}

type listEntry struct {
	key     blockKey
	entries []Entry
	bytes   int64
}

func (c *listCache) get(k blockKey) ([]Entry, bool) {
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*listEntry).entries, true
}

func (c *listCache) put(k blockKey, entries []Entry, rawBytes int64) {
	if rawBytes > c.cap {
		return
	}
	if el, ok := c.m[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	for c.used+rawBytes > c.cap && c.lru.Len() > 0 {
		back := c.lru.Back()
		ce := back.Value.(*listEntry)
		c.used -= ce.bytes
		delete(c.m, ce.key)
		c.lru.Remove(back)
	}
	c.m[k] = c.lru.PushFront(&listEntry{key: k, entries: entries, bytes: rawBytes})
	c.used += rawBytes
}

// order lists the cached keys from most to least recently used.
func (c *listCache) order() []blockKey {
	var out []blockKey
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*listEntry).key)
	}
	return out
}

// order is the model's order read off the slab's ring, plus how many slab
// chunks and mapped keys back it.
func (c *BlockCache) order() (keys []blockKey, chunks, mapped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		for i := c.nodeLocked(0).next; i != 0; i = c.nodeLocked(i).next {
			keys = append(keys, c.nodeLocked(i).key)
		}
	}
	return keys, len(c.chunks), len(c.m)
}

// TestBlockCacheMatchesListLRU drives the slab LRU and the list model with the
// same random Get/Put stream — keys that recur, block sizes from a sliver to
// more than the capacity, a working set past it so evictions chain through the
// free list, small blocks on some seeds so the slab spans many chunks — and
// compares every answer, the counters and the whole recency order after every
// operation.
func TestBlockCacheMatchesListLRU(t *testing.T) {
	maxChunks := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(1+rng.Intn(8)) << 10
		keys := 4 + rng.Intn(8*cacheChunk)
		maxSize := []int{16, 100, 600}[seed%3]
		c := NewBlockCache(capacity)
		model := &listCache{cap: capacity, lru: list.New(), m: map[blockKey]*list.Element{}}
		for op := 0; op < 4000; op++ {
			k := blockKey{file: flash.FileID(rng.Intn(3)), block: rng.Intn(keys)}
			if rng.Intn(3) == 0 {
				got, ok := c.Get(k.file, k.block)
				want, wok := model.get(k)
				if ok != wok || (ok && &got[0] != &want[0]) {
					t.Fatalf("seed %d op %d: Get(%v) = %v, model %v", seed, op, k, ok, wok)
				}
			} else {
				size := int64(1 + rng.Intn(maxSize))
				if rng.Intn(50) == 0 {
					size = capacity + int64(rng.Intn(2)) // exactly the capacity, or just too large
				}
				entries := []Entry{{Key: []byte{byte(op)}}}
				c.Put(k.file, k.block, entries, size)
				model.put(k, entries, size)
			}
			hits, misses, used := c.Stats()
			if hits != model.hits || misses != model.misses || used != model.used {
				t.Fatalf("seed %d op %d: hits/misses/used %d/%d/%d, model %d/%d/%d",
					seed, op, hits, misses, used, model.hits, model.misses, model.used)
			}
			got, chunks, mapped := c.order()
			if want := model.order(); !reflect.DeepEqual(got, want) || mapped != len(model.m) {
				t.Fatalf("seed %d op %d: recency order %v (%d keys mapped), model %v (%d)", seed, op, got, mapped, want, len(model.m))
			}
			maxChunks = max(maxChunks, chunks)
		}
	}
	if maxChunks < 4 {
		t.Errorf("the slab never grew past %d chunks: the streams do not exercise its growth", maxChunks)
	}
}

// TestRecycledBlockCacheIsCold: "executions start cold" is the model, so a
// cache that went through a random workload and was Reset must answer a fresh
// random Get/Put stream exactly like NewBlockCache of the Reset's capacity —
// every answer, hits, misses, evictions, Stats and the whole recency order
// after every operation — while keeping its node slab and holding no block of
// its earlier life. The capacity changes at the Reset, drops to ≤ 0 on some
// seeds and comes back from 0 on others, and some caches are Reset while
// empty or twice in a row.
func TestRecycledBlockCacheIsCold(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first := int64(1+rng.Intn(8)) << 10
		if seed%5 == 0 {
			first = 0
		}
		c := NewBlockCache(first)
		for op := 0; op < []int{0, 300, 3000}[seed%3]; op++ {
			k := blockKey{file: flash.FileID(rng.Intn(3)), block: rng.Intn(4 + rng.Intn(8*cacheChunk))}
			if rng.Intn(3) == 0 {
				c.Get(k.file, k.block)
			} else {
				c.Put(k.file, k.block, []Entry{{Key: []byte{1}}}, int64(1+rng.Intn(600)))
			}
		}
		_, kept, _ := c.order()
		capacity := int64(1+rng.Intn(8)) << 10
		switch seed % 6 {
		case 0:
			capacity = 0
		case 1:
			capacity = -5
		}
		c.Reset(capacity)
		if seed%4 == 0 {
			c.Reset(capacity) // resetting an empty cache changes nothing
		}
		if keys, chunks, mapped := c.order(); len(keys) != 0 || mapped != 0 || chunks != kept {
			t.Fatalf("seed %d: Reset left %d keys in the ring and %d mapped, %d of %d slab chunks", seed, len(keys), mapped, chunks, kept)
		}
		for _, ch := range c.chunks {
			for _, n := range ch {
				if n.entries != nil {
					t.Fatalf("seed %d: a Reset cache still holds a block", seed)
				}
			}
		}
		fresh := NewBlockCache(capacity)
		keys := 4 + rng.Intn(8*cacheChunk)
		for op := 0; op < 3000; op++ {
			k := blockKey{file: flash.FileID(rng.Intn(3)), block: rng.Intn(keys)}
			if rng.Intn(3) == 0 {
				got, ok := c.Get(k.file, k.block)
				want, wok := fresh.Get(k.file, k.block)
				if ok != wok || (ok && &got[0] != &want[0]) {
					t.Fatalf("seed %d op %d: Get(%v) = %v, new cache %v", seed, op, k, ok, wok)
				}
			} else {
				size := int64(1 + rng.Intn(600))
				if rng.Intn(50) == 0 {
					size = capacity + int64(rng.Intn(2)) // exactly the capacity, or just too large
				}
				entries := []Entry{{Key: []byte{byte(op)}}}
				c.Put(k.file, k.block, entries, size)
				fresh.Put(k.file, k.block, entries, size)
			}
			h, m, u := c.Stats()
			wh, wm, wu := fresh.Stats()
			if h != wh || m != wm || u != wu {
				t.Fatalf("seed %d op %d: hits/misses/used %d/%d/%d, new cache %d/%d/%d", seed, op, h, m, u, wh, wm, wu)
			}
			got, _, mapped := c.order()
			if want, _, wmapped := fresh.order(); !reflect.DeepEqual(got, want) || mapped != wmapped {
				t.Fatalf("seed %d op %d: recency order %v (%d keys mapped), new cache %v (%d)", seed, op, got, mapped, want, wmapped)
			}
		}
	}
}
