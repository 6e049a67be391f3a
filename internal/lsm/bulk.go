package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// BulkLoad writes entries straight into C1 SSTs, the way MyRocks loads a table
// in bulk: one sort per segment of input, no memtable. It is the only way data
// enters a tree. A tombstone's Value is ignored; the later of two loads wins
// for a key both hold.
//
// The entries are cut into segments by the ByteSize rule: a segment ends at the
// entry that brings len(key)+len(value)+48, summed over the segment, to
// SegmentBytes or beyond. Each segment becomes one SST followed by the
// compaction step, and a load whose last segment is full (or that is empty)
// runs one more compaction step. These cut points fix every SST boundary, so
// they must not move: the digest tables in bulk_test.go pin the stored bytes.
//
// BulkLoad refuses a key repeated within one segment, before writing anything.
// A key repeated across segments is fine: the later SST shadows the earlier
// one. entries is not reordered; keys and values are copied into the SSTs.
func (t *Tree) BulkLoad(entries []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	segs, order, err := cutSegments(entries, t.cfg.SegmentBytes)
	if err != nil {
		return err
	}
	for _, s := range segs {
		w := newSSTWriter(s.hi-s.lo, s.encBytes, s.maxKey)
		for i := s.lo; i < s.hi; i++ {
			e := entries[i]
			if !s.sorted {
				e = entries[order[i].i]
			}
			if e.Tombstone {
				e.Value = nil
			}
			if err := w.add(e); err != nil {
				return err
			}
		}
		if err := t.addL1Locked(w); err != nil {
			return err
		}
		if err := t.compactLocked(); err != nil {
			return err
		}
	}
	if len(segs) == 0 || segs[len(segs)-1].full {
		return t.compactLocked()
	}
	return nil
}

// bulkSegment is entries[lo:hi], one SST's worth of BulkLoad input.
type bulkSegment struct {
	lo, hi   int
	sorted   bool  // arrived in key order; otherwise order[lo:hi] gives it
	full     bool  // reached SegmentBytes
	encBytes int64 // SST data-block bytes (see encodedLen)
	maxKey   int
}

// bulkKey is a sort handle: the key's prefix word and its entry's index.
type bulkKey struct {
	prefix uint64
	i      int32
}

// cutSegments cuts entries by the ByteSize rule and orders each segment by
// key. A segment that arrives sorted is left as it is; for the others,
// order[lo:hi] holds the segment's sort handles in key order (order is nil
// when no segment needs it). A key repeated within a segment is an error
// naming the key.
func cutSegments(entries []Entry, segBytes int64) ([]bulkSegment, []bulkKey, error) {
	var segs []bulkSegment
	var order, tmp []bulkKey
	for lo := 0; lo < len(entries); {
		s := bulkSegment{lo: lo, hi: lo, sorted: true}
		var size int64
		for s.hi < len(entries) && size < segBytes {
			e := &entries[s.hi]
			vlen := len(e.Value)
			if e.Tombstone {
				vlen = 0
			}
			if s.sorted && s.hi > lo {
				switch c := bytes.Compare(entries[s.hi-1].Key, e.Key); {
				case c == 0:
					return nil, nil, duplicateKey(e.Key)
				case c > 0:
					s.sorted = false
				}
			}
			size += int64(len(e.Key)+vlen) + 48
			s.encBytes += encodedLen(len(e.Key), vlen)
			s.maxKey = max(s.maxKey, len(e.Key))
			s.hi++
		}
		s.full = size >= segBytes
		if !s.sorted {
			if order == nil {
				order = make([]bulkKey, len(entries))
			}
			keys := order[lo:s.hi]
			for j := range keys {
				keys[j] = bulkKey{keyPrefix(entries[lo+j].Key), int32(lo + j)}
			}
			if len(tmp) < len(keys) {
				tmp = make([]bulkKey, len(keys))
			}
			if err := sortSegment(entries, keys, tmp); err != nil {
				return nil, nil, err
			}
		}
		segs = append(segs, s)
		lo = s.hi
	}
	return segs, order, nil
}

// sortSegment orders one segment's handles, which arrive in entry order, by
// key, using tmp (at least as long) as scratch. A stable LSD radix sort on the
// prefix word orders the handles by prefix, one pass per byte of the word that
// is not the same in every handle (JOB index keys hold the flag byte, the high
// value bytes and the PK's sign byte constant); handles with equal prefixes
// stay in entry order, and only those runs are then compared in full — a run
// that already ascends, as an index's keys for one value do in PK order, is
// left as it is. A key repeated within the segment is an error naming the
// first such key in key order.
func sortSegment(entries []Entry, keys, tmp []bulkKey) error {
	if len(keys) < 2 {
		return nil
	}
	var diff uint64
	for _, k := range keys {
		diff |= k.prefix ^ keys[0].prefix
	}
	var shifts [8]uint // the varying bytes, least significant first
	digits := 0
	for sh := uint(0); sh < 64; sh += 8 {
		if byte(diff>>sh) != 0 {
			shifts[digits] = sh
			digits++
		}
	}
	var counts [8][256]int32
	for _, k := range keys {
		for d, sh := range shifts[:digits] {
			counts[d][byte(k.prefix>>sh)]++
		}
	}
	src, dst := keys, tmp[:len(keys)]
	for d, sh := range shifts[:digits] {
		c := &counts[d]
		var at int32
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, k := range src {
			b := byte(k.prefix >> sh)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if digits%2 != 0 {
		copy(keys, src)
	}

	byKey := func(a, b bulkKey) int { return bytes.Compare(entries[a.i].Key, entries[b.i].Key) }
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].prefix == keys[lo].prefix {
			hi++
		}
		run := keys[lo:hi]
		lo = hi
		if ascending(entries, run) {
			continue
		}
		slices.SortFunc(run, byKey)
		for j := 1; j < len(run); j++ {
			if k := entries[run[j].i].Key; bytes.Equal(k, entries[run[j-1].i].Key) {
				return duplicateKey(k)
			}
		}
	}
	return nil
}

// ascending reports whether run's keys strictly ascend.
func ascending(entries []Entry, run []bulkKey) bool {
	for j := 1; j < len(run); j++ {
		if bytes.Compare(entries[run[j-1].i].Key, entries[run[j].i].Key) >= 0 {
			return false
		}
	}
	return true
}

// keyPrefix is the big-endian word of the key's first 8 bytes, zero-padded.
// Unequal prefixes order two keys as bytes.Compare does; equal ones say
// nothing (they tie "a" with "a\x00").
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

func duplicateKey(key []byte) error {
	return fmt.Errorf("lsm: bulk load: key %q repeats within one segment", key)
}
