package exec

import "slices"

// keyTab is an open-addressing hash table over encoded join/group keys,
// replacing the former map[string][]int inner tables. Keys are stored once in
// a shared byte arena and addressed by (offset, length); buckets hold
// entry-index+1 with linear probing, so a lookup costs one FNV-1a pass over
// the probe key plus a byte-slice compare per collision — no string
// conversion, no per-bucket slice header churn.
//
// Entry order is first-occurrence order: entry k is the k-th distinct key
// inserted. Joins chain their row numbers through a separate next[] array in
// insertion order, reproducing the append order of the old per-key []int
// slices; grouping uses the entry index directly as the group ordinal. Both
// uses therefore iterate in exactly the order the map-based implementation
// produced, keeping results and virtual-time charges byte-identical.
type keyTab struct {
	buckets []int32 // entry index + 1; 0 = empty
	entries []keyEntry
	keys    []byte // arena of concatenated key bytes

	// Per-row match chains (join use only): next[row] is the next row with
	// the same key, -1 terminates. Parallel to the inner row slice.
	next []int32
}

type keyEntry struct {
	hash uint64
	off  int32 // key position in the arena
	klen int32

	head int32 // first row with this key (join use; -1 when unused)
	tail int32 // last row, for O(1) ordered appends
	n    int32 // chain length = len(old map bucket)
}

// fnv1a is the 64-bit FNV-1a hash of b (inlined to keep the probe loop free
// of interface calls).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// reset empties the table and sizes it for n rows — about n distinct keys,
// and n chain slots — reusing whatever capacity an earlier use left.
func (t *keyTab) reset(n int) {
	sz := 8
	for sz < n*2 {
		sz <<= 1
	}
	if cap(t.buckets) < sz {
		t.buckets = make([]int32, sz)
	} else {
		t.buckets = t.buckets[:sz]
		clear(t.buckets)
	}
	t.entries, t.keys, t.next = t.entries[:0], t.keys[:0], t.next[:0]
	t.addRows(n)
}

// addRows extends the chain array by n unlinked rows.
func (t *keyTab) addRows(n int) {
	from := len(t.next)
	t.next = slices.Grow(t.next, n)[:from+n]
	for i := from; i < from+n; i++ {
		t.next[i] = -1
	}
}

// find returns the entry index holding key (pre-hashed as h), or -1.
func (t *keyTab) find(h uint64, key []byte) int32 {
	mask := uint64(len(t.buckets) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := t.buckets[i]
		if b == 0 {
			return -1
		}
		e := &t.entries[b-1]
		if e.hash == h && t.keyEquals(e, key) {
			return b - 1
		}
	}
}

// put returns the entry index for key, creating it when absent. fresh reports
// whether the entry was created by this call.
func (t *keyTab) put(h uint64, key []byte) (idx int32, fresh bool) {
	if (len(t.entries)+1)*4 > len(t.buckets)*3 {
		t.grow()
	}
	mask := uint64(len(t.buckets) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := t.buckets[i]
		if b == 0 {
			off := int32(len(t.keys))
			t.keys = append(t.keys, key...)
			t.entries = append(t.entries, keyEntry{hash: h, off: off, klen: int32(len(key)), head: -1, tail: -1})
			t.buckets[i] = int32(len(t.entries))
			return int32(len(t.entries)) - 1, true
		}
		e := &t.entries[b-1]
		if e.hash == h && t.keyEquals(e, key) {
			return b - 1, false
		}
	}
}

func (t *keyTab) keyEquals(e *keyEntry, key []byte) bool {
	if int(e.klen) != len(key) {
		return false
	}
	stored := t.keys[e.off : e.off+e.klen]
	for i, c := range key {
		if stored[i] != c {
			return false
		}
	}
	return true
}

// grow doubles the bucket array and reinserts the entry references. Entries,
// key bytes and chains are untouched, so ordinals and iteration order are
// stable across growth.
func (t *keyTab) grow() {
	old := t.buckets
	t.buckets = make([]int32, 2*len(old))
	mask := uint64(len(t.buckets) - 1)
	for ei := range t.entries {
		h := t.entries[ei].hash
		for i := h & mask; ; i = (i + 1) & mask {
			if t.buckets[i] == 0 {
				t.buckets[i] = int32(ei + 1)
				break
			}
		}
	}
}

// addRow links row (with encoded key, pre-hashed as h) into the table's match
// chain, preserving insertion order. Rows must be added with strictly
// increasing row numbers below the count reset/addRows made room for; the
// caller skips NULL-key rows, whose next slots stay unused.
func (t *keyTab) addRow(h uint64, key []byte, row int) {
	idx, fresh := t.put(h, key)
	e := &t.entries[idx]
	if fresh || e.head < 0 {
		e.head = int32(row)
	} else {
		t.next[e.tail] = int32(row)
	}
	e.tail = int32(row)
	e.n++
}
