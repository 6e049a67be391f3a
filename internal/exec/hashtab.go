package exec

import "slices"

// keyTab is an open-addressing hash table over join/group keys, replacing the
// former map[string][]int inner tables; buckets hold entry-index+1 with linear
// probing. A key has one of two representations, fixed per use of the table by
// whoever fills it (a join step: StartPipeline, from the schema types; grouping:
// always bytes) — the table itself never mixes them between two resets:
//
//   - bytes (put/find/addRow): the encoded key (Record.AppendColKey), stored
//     once in a shared arena and addressed by (offset, length); a lookup costs
//     one FNV-1a pass over the probe key plus a byte compare per collision.
//   - integer (putInt/findInt/addRowInt): the raw payloads of one or two Int32
//     columns packed into a word that sits in the entry itself — a
//     multiplicative hash, one word compare, no arena.
//
// Equal keys are equal in both, so ordinals, chains and counts are too.
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
	key  uint64 // integer: the key; bytes: arena offset<<32 | length

	head int32 // first row with this key (join use; -1 when unused)
	tail int32 // last row, for O(1) ordered appends
	n    int32 // chain length = len(old map bucket)
}

// hashInt spreads an integer key over the low bits the bucket mask keeps
// (Fibonacci multiply, high half folded down).
func hashInt(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return h ^ h>>32
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
			at := uint64(len(t.keys))<<32 | uint64(len(key))
			t.keys = append(t.keys, key...)
			return t.insert(i, h, at), true
		}
		e := &t.entries[b-1]
		if e.hash == h && t.keyEquals(e, key) {
			return b - 1, false
		}
	}
}

// insert appends the entry for a key absent from the table at free bucket i.
func (t *keyTab) insert(i, h, key uint64) int32 {
	t.entries = append(t.entries, keyEntry{hash: h, key: key, head: -1, tail: -1})
	t.buckets[i] = int32(len(t.entries))
	return int32(len(t.entries)) - 1
}

func (t *keyTab) keyEquals(e *keyEntry, key []byte) bool {
	off := e.key >> 32
	return string(t.keys[off:off+e.key&0xFFFFFFFF]) == string(key)
}

// findInt is find in the integer representation (an empty bucket, 0, comes
// out as -1).
func (t *keyTab) findInt(key uint64) int32 {
	mask := uint64(len(t.buckets) - 1)
	for i := hashInt(key) & mask; ; i = (i + 1) & mask {
		b := t.buckets[i]
		if b == 0 || t.entries[b-1].key == key {
			return b - 1
		}
	}
}

// putInt is put in the integer representation.
func (t *keyTab) putInt(key uint64) (idx int32, fresh bool) {
	if (len(t.entries)+1)*4 > len(t.buckets)*3 {
		t.grow()
	}
	mask := uint64(len(t.buckets) - 1)
	h := hashInt(key)
	for i := h & mask; ; i = (i + 1) & mask {
		b := t.buckets[i]
		if b == 0 {
			return t.insert(i, h, key), true
		}
		if t.entries[b-1].key == key {
			return b - 1, false
		}
	}
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
	idx, _ := t.put(h, key)
	t.link(idx, row)
}

// addRowInt is addRow in the integer representation.
func (t *keyTab) addRowInt(key uint64, row int) {
	idx, _ := t.putInt(key)
	t.link(idx, row)
}

func (t *keyTab) link(idx int32, row int) {
	e := &t.entries[idx]
	if e.head < 0 {
		e.head = int32(row)
	} else {
		t.next[e.tail] = int32(row)
	}
	e.tail = int32(row)
	e.n++
}
