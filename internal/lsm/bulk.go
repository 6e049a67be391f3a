package lsm

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
)

// BulkLoad writes entries straight into C1 SSTs, the way MyRocks loads a table
// in bulk: no memtable, one sort per memtable's worth of input. The result —
// every SST byte, where each file sits, every flash counter, the memtable seed
// a later Put gets — is that of Put for each entry in slice order (Delete for a
// tombstone, whose Value is ignored) followed by Flush.
//
// The entries are cut where the memtable would rotate. By the ByteSize rule a
// segment ends at the entry that brings len(key)+len(value)+48, summed over
// the segment, to MemTableBytes or beyond; the last, partial segment is what
// Flush writes. Each segment becomes one SST followed by the compaction step a
// flush runs, so compactions fire at the same points. (The other rotation
// trigger, an arena out of chunk indexes, needs gigabytes in one memtable.)
//
// Only input the Put path would store the same way is accepted: BulkLoad
// refuses a tree whose memtables hold entries and a key repeated within one
// segment (an overwrite inside a memtable), and it does so before writing
// anything. A key repeated across segments is fine: the later SST shadows the
// earlier one, as the later memtable would. entries is not reordered; keys and
// values are copied into the SSTs.
func (t *Tree) BulkLoad(entries []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.memLenLocked(); n > 0 {
		return fmt.Errorf("lsm: bulk load into a tree holding %d memtable entries", n)
	}
	segs, order, err := cutSegments(entries, t.cfg.MemTableBytes)
	if err != nil {
		return err
	}
	for _, s := range segs {
		t.mem = t.newMemTableLocked() // the memtable the Put path would rotate to
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
		return t.compactLocked() // Flush with an empty memtable still compacts
	}
	return nil
}

// bulkSegment is entries[lo:hi], one memtable's worth of BulkLoad input.
type bulkSegment struct {
	lo, hi   int
	sorted   bool  // arrived in key order; otherwise order[lo:hi] gives it
	full     bool  // reached MemTableBytes: a rotation rather than the final Flush
	encBytes int64 // SST data-block bytes, as MemTable.encBytes counts them
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
func cutSegments(entries []Entry, memBytes int64) ([]bulkSegment, []bulkKey, error) {
	var segs []bulkSegment
	var order []bulkKey
	for lo := 0; lo < len(entries); {
		s := bulkSegment{lo: lo, hi: lo, sorted: true}
		var size int64
		for s.hi < len(entries) && size < memBytes {
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
		s.full = size >= memBytes
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

func duplicateKey(key []byte) error {
	return fmt.Errorf("lsm: bulk load: key %q repeats within one memtable's worth of entries", key)
}
