package lsm

import (
	"bytes"
	"cmp"
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
	var order []bulkKey
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
			slices.SortFunc(keys, func(a, b bulkKey) int {
				if a.prefix != b.prefix {
					return cmp.Compare(a.prefix, b.prefix)
				}
				return bytes.Compare(entries[a.i].Key, entries[b.i].Key)
			})
			for j := 1; j < len(keys); j++ {
				if k := keys[j]; k.prefix == keys[j-1].prefix && bytes.Equal(entries[k.i].Key, entries[keys[j-1].i].Key) {
					return nil, nil, duplicateKey(entries[k.i].Key)
				}
			}
		}
		segs = append(segs, s)
		lo = s.hi
	}
	return segs, order, nil
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
