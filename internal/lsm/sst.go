package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

// Access bundles the timeline, rate table and block cache of the engine
// performing an LSM operation, so the same physical read is priced
// differently for the host path and the on-device NDP path. A zero Access
// (nil TL) performs the work without charging, used for loading and
// maintenance.
type Access struct {
	TL    *vclock.Timeline
	R     hw.Rates
	Cache *BlockCache
	// Bloom, when set, accumulates Bloom-filter probe outcomes for the
	// metrics registry; it never affects virtual-time accounting.
	Bloom *BloomStats
	// Faults, when set, injects read failures into the flash path of this
	// access context (chaos runs; see internal/fault).
	Faults flash.Faults
}

// Charged reports whether this access books virtual time.
func (a Access) Charged() bool { return a.TL != nil }

// TargetBlockBytes is the data-block target size, as in RocksDB. The cost
// model uses it to estimate how many distinct block reads an index access
// path incurs.
const TargetBlockBytes = 4 << 10

const (
	targetBlockBytes = TargetBlockBytes
	footerBytes      = 48
)

// indexEntry is one sparse-index entry: the first key of a data block plus
// the block's physical location, forming the fence pointers of the paper.
type indexEntry struct {
	firstKey []byte
	off      int64
	length   int64
	entries  int
}

// SST is an immutable Sorted String Table stored on flash. The sparse index
// block, Bloom filter and min/max fence pointers are kept in memory once the
// table is opened (nKV reserves device DRAM for exactly this index-block
// mapping); data blocks are always read from flash and charged.
type SST struct {
	file    flash.FileID
	fl      *flash.Flash
	index   []indexEntry
	bloom   *Bloom
	minKey  []byte
	maxKey  []byte
	count   int
	dataLen int64

	// mu guards parsed. parsed memoizes decoded data blocks by block index —
	// a wall-clock optimization only: the table is immutable, entries alias
	// the flash blob, and every virtual-cache miss still performs the charged,
	// fault-injectable flash read before consulting the memo, so virtual time
	// and fault behavior are byte-identical with or without it.
	mu     sync.RWMutex
	parsed [][]Entry // guarded by mu
}

// BuildSST writes the entries (which must be sorted by key, unique) as a new
// SST on fl, charging the write to ac if set, and returns the opened table.
func BuildSST(fl *flash.Flash, entries []Entry, ac Access) (*SST, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("lsm: cannot build empty SST")
	}
	var data bytes.Buffer
	var index []indexEntry
	bloom := NewBloom(len(entries))

	var blockStart int64
	var blockFirst []byte
	blockEntries := 0
	flushBlock := func(endOff int64) {
		if blockEntries == 0 {
			return
		}
		index = append(index, indexEntry{
			firstKey: blockFirst,
			off:      blockStart,
			length:   endOff - blockStart,
			entries:  blockEntries,
		})
		blockEntries = 0
	}

	var scratch [binary.MaxVarintLen64]byte
	prev := []byte(nil)
	for _, e := range entries {
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			return nil, fmt.Errorf("lsm: SST entries out of order or duplicated (%q after %q)", e.Key, prev)
		}
		prev = e.Key
		if blockEntries == 0 {
			blockStart = int64(data.Len())
			blockFirst = append([]byte(nil), e.Key...)
		}
		flags := byte(0)
		if e.Tombstone {
			flags = 1
		}
		data.WriteByte(flags)
		n := binary.PutUvarint(scratch[:], uint64(len(e.Key)))
		data.Write(scratch[:n])
		n = binary.PutUvarint(scratch[:], uint64(len(e.Value)))
		data.Write(scratch[:n])
		data.Write(e.Key)
		data.Write(e.Value)
		bloom.Add(e.Key)
		blockEntries++
		if int64(data.Len())-blockStart >= targetBlockBytes {
			flushBlock(int64(data.Len()))
		}
	}
	flushBlock(int64(data.Len()))

	// Index block.
	indexOff := int64(data.Len())
	binary.Write(&data, binary.LittleEndian, uint32(len(index)))
	for _, ie := range index {
		binary.Write(&data, binary.LittleEndian, uint32(len(ie.firstKey)))
		data.Write(ie.firstKey)
		binary.Write(&data, binary.LittleEndian, uint64(ie.off))
		binary.Write(&data, binary.LittleEndian, uint64(ie.length))
		binary.Write(&data, binary.LittleEndian, uint32(ie.entries))
	}
	indexLen := int64(data.Len()) - indexOff

	// Bloom block.
	bloomOff := int64(data.Len())
	bb := bloom.Marshal()
	data.Write(bb)
	bloomLen := int64(len(bb))

	// Meta block: count, min key, max key.
	metaOff := int64(data.Len())
	binary.Write(&data, binary.LittleEndian, uint64(len(entries)))
	minKey := entries[0].Key
	maxKey := entries[len(entries)-1].Key
	binary.Write(&data, binary.LittleEndian, uint32(len(minKey)))
	data.Write(minKey)
	binary.Write(&data, binary.LittleEndian, uint32(len(maxKey)))
	data.Write(maxKey)
	metaLen := int64(data.Len()) - metaOff

	// Footer.
	var footer [footerBytes]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(indexLen))
	binary.LittleEndian.PutUint64(footer[16:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(bloomLen))
	binary.LittleEndian.PutUint64(footer[32:], uint64(metaOff))
	binary.LittleEndian.PutUint64(footer[40:], uint64(metaLen))
	data.Write(footer[:])

	id, err := fl.WriteFile(data.Bytes(), ac.TL, ac.R)
	if err != nil {
		return nil, err
	}
	return OpenSST(fl, id)
}

// OpenSST parses the footer, index, Bloom filter and meta block of a stored
// SST into memory. Opening is a maintenance operation and is not charged.
func OpenSST(fl *flash.Flash, id flash.FileID) (*SST, error) {
	size := fl.Size(id)
	if size < footerBytes {
		return nil, fmt.Errorf("lsm: SST file %d too small (%d bytes)", id, size)
	}
	raw, err := fl.ReadAt(id, 0, size, nil, hw.Rates{}, nil)
	if err != nil {
		return nil, err
	}
	footer := raw[size-footerBytes:]
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	bloomLen := int64(binary.LittleEndian.Uint64(footer[24:]))
	metaOff := int64(binary.LittleEndian.Uint64(footer[32:]))
	metaLen := int64(binary.LittleEndian.Uint64(footer[40:]))
	if indexOff < 0 || indexOff+indexLen > size || bloomOff+bloomLen > size || metaOff+metaLen > size {
		return nil, fmt.Errorf("lsm: SST file %d has corrupt footer", id)
	}

	t := &SST{file: id, fl: fl, dataLen: indexOff}

	// Index block.
	ib := raw[indexOff : indexOff+indexLen]
	if len(ib) < 4 {
		return nil, fmt.Errorf("lsm: SST file %d has corrupt index block", id)
	}
	n := int(binary.LittleEndian.Uint32(ib))
	ib = ib[4:]
	t.index = make([]indexEntry, 0, n)
	for i := 0; i < n; i++ {
		if len(ib) < 4 {
			return nil, fmt.Errorf("lsm: SST file %d index entry %d truncated", id, i)
		}
		klen := int(binary.LittleEndian.Uint32(ib))
		ib = ib[4:]
		if len(ib) < klen+20 {
			return nil, fmt.Errorf("lsm: SST file %d index entry %d truncated", id, i)
		}
		key := append([]byte(nil), ib[:klen]...)
		ib = ib[klen:]
		off := int64(binary.LittleEndian.Uint64(ib))
		length := int64(binary.LittleEndian.Uint64(ib[8:]))
		entries := int(binary.LittleEndian.Uint32(ib[16:]))
		ib = ib[20:]
		t.index = append(t.index, indexEntry{firstKey: key, off: off, length: length, entries: entries})
	}

	t.bloom = UnmarshalBloom(raw[bloomOff : bloomOff+bloomLen])

	mb := raw[metaOff : metaOff+metaLen]
	if len(mb) < 12 {
		return nil, fmt.Errorf("lsm: SST file %d has corrupt meta block", id)
	}
	t.count = int(binary.LittleEndian.Uint64(mb))
	mb = mb[8:]
	mklen := int(binary.LittleEndian.Uint32(mb))
	mb = mb[4:]
	t.minKey = append([]byte(nil), mb[:mklen]...)
	mb = mb[mklen:]
	xklen := int(binary.LittleEndian.Uint32(mb))
	mb = mb[4:]
	t.maxKey = append([]byte(nil), mb[:xklen]...)
	return t, nil
}

// Count reports the number of entries in the table.
func (t *SST) Count() int { return t.count }

// DataBytes reports the size of the data-block section.
func (t *SST) DataBytes() int64 { return t.dataLen }

// File reports the backing flash file.
func (t *SST) File() flash.FileID { return t.file }

// MinKey and MaxKey are the fence pointers of the table.
func (t *SST) MinKey() []byte { return t.minKey }

// MaxKey reports the largest key in the table.
func (t *SST) MaxKey() []byte { return t.maxKey }

// InRange reports whether key could be within the table's fence pointers.
func (t *SST) InRange(key []byte) bool {
	return bytes.Compare(key, t.minKey) >= 0 && bytes.Compare(key, t.maxKey) <= 0
}

// OverlapsRange reports whether [lo,hi] intersects the table's key range.
// A nil bound is unbounded.
func (t *SST) OverlapsRange(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(t.minKey, hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.maxKey, lo) < 0 {
		return false
	}
	return true
}

// blockIdx returns the index of the data block that could contain key, or -1.
func (t *SST) blockIdx(key []byte) int {
	lo, hi := 0, len(t.index)-1
	if hi < 0 || bytes.Compare(key, t.index[0].firstKey) < 0 {
		return -1
	}
	// Find the last block whose first key ≤ key.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if bytes.Compare(t.index[mid].firstKey, key) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func indexDepth(n int) int {
	d := 1
	for n > 1 {
		n /= 2
		d++
	}
	return d
}

// parseBlock decodes all entries of one raw data block. sizeHint pre-sizes
// the output from the index entry's recorded count (0 = unknown).
func parseBlock(raw []byte, sizeHint int) ([]Entry, error) {
	out := make([]Entry, 0, sizeHint)
	for len(raw) > 0 {
		flags := raw[0]
		raw = raw[1:]
		klen, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("lsm: corrupt data block (key length)")
		}
		raw = raw[n:]
		vlen, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("lsm: corrupt data block (value length)")
		}
		raw = raw[n:]
		if uint64(len(raw)) < klen+vlen {
			return nil, fmt.Errorf("lsm: corrupt data block (truncated entry)")
		}
		out = append(out, Entry{
			Key:       raw[:klen:klen],
			Value:     raw[klen : klen+vlen : klen+vlen],
			Tombstone: flags&1 != 0,
		})
		raw = raw[klen+vlen:]
	}
	return out, nil
}

// searchEntries returns the position of the first entry whose key is ≥ key in
// a key-ordered entry list (len(entries) when there is none). It charges
// nothing: callers book the seek they model themselves.
func searchEntries(entries []Entry, key []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].Key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// readBlock loads data block i through the block cache; misses read from
// flash and charge the flash path, hits charge only the in-memory copy.
func (t *SST) readBlock(i int, ac Access) ([]Entry, error) {
	return t.readBlockMode(i, ac, false)
}

// readBlockMode distinguishes random accesses (which pay the page latency)
// from sequential continuation reads (latency hidden by channel pipelining).
func (t *SST) readBlockMode(i int, ac Access, sequential bool) ([]Entry, error) {
	ie := t.index[i]
	if cached, ok := ac.Cache.Get(t.file, i); ok {
		if ac.Charged() {
			// The block is already decoded in memory; a hit costs roughly
			// one entry's worth of copying, not the whole block.
			per := ie.length
			if n := int64(len(cached)); n > 0 {
				per = ie.length / n
			}
			ac.R.Memcpy(ac.TL, per)
		}
		return cached, nil
	}
	read := t.fl.ReadAt
	if sequential {
		read = t.fl.ReadAtSeq
	}
	// The flash read happens unconditionally: it books the virtual-time
	// charge and gives fault injection its shot. Only then may the memoized
	// decode stand in for re-parsing the returned bytes.
	raw, err := read(t.file, ie.off, ie.length, ac.TL, ac.R, ac.Faults)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	var entries []Entry
	if t.parsed != nil {
		entries = t.parsed[i]
	}
	t.mu.RUnlock()
	if entries == nil {
		entries, err = parseBlock(raw, ie.entries)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		if t.parsed == nil {
			t.parsed = make([][]Entry, len(t.index))
		}
		t.parsed[i] = entries
		t.mu.Unlock()
	}
	ac.Cache.Put(t.file, i, entries, ie.length)
	return entries, nil
}

// Get performs a point lookup, honouring the Bloom filter (host side only,
// per the paper) and the fence pointers.
func (t *SST) Get(key []byte, ac Access) (Entry, bool, error) {
	if !t.InRange(key) {
		return Entry{}, false, nil
	}
	if !ac.R.OnDevice {
		if !t.bloom.MayContain(key) {
			ac.Bloom.AddNegative()
			return Entry{}, false, nil
		}
		ac.Bloom.AddPositive()
	}
	bi := t.blockIdx(key)
	if bi < 0 {
		return Entry{}, false, nil
	}
	if ac.Charged() {
		ac.R.SeekIndex(ac.TL, indexDepth(len(t.index)))
	}
	entries, err := t.readBlock(bi, ac)
	if err != nil {
		return Entry{}, false, err
	}
	if ac.Charged() {
		ac.R.SeekData(ac.TL, indexDepth(len(entries)))
		ac.R.Memcmp(ac.TL, int64(len(key))*int64(indexDepth(len(entries))), indexDepth(len(entries)))
	}
	if i := searchEntries(entries, key); i < len(entries) && bytes.Equal(entries[i].Key, key) {
		return entries[i], true, nil
	}
	return Entry{}, false, nil
}

// SSTIter streams an SST in key order, loading data blocks lazily.
type SSTIter struct {
	t       *SST
	ac      Access
	block   []Entry
	blockNo int
	pos     int
	err     error
	loaded  bool // a block has been read: further reads are sequential
}

// Iter returns an iterator positioned at the first key ≥ start.
func (t *SST) Iter(start []byte, ac Access) *SSTIter {
	it := &SSTIter{t: t, ac: ac, blockNo: 0}
	if start != nil {
		bi := t.blockIdx(start)
		if bi < 0 {
			bi = 0
		}
		it.blockNo = bi
		if ac.Charged() {
			ac.R.SeekIndex(ac.TL, indexDepth(len(t.index)))
		}
	}
	it.loadBlock()
	if start != nil && it.err == nil {
		// Positioning inside the block is not charged (the index seek above
		// is). Only the last block whose first key is ≤ start can hold entries
		// below it, so when all of its entries are, the first key ≥ start opens
		// the next block: a charged sequential read.
		it.pos = searchEntries(it.block, start)
		if it.pos >= len(it.block) {
			it.blockNo++
			it.loadBlock()
		}
	}
	return it
}

func (it *SSTIter) loadBlock() {
	it.block = nil
	it.pos = 0
	for it.blockNo < len(it.t.index) {
		b, err := it.t.readBlockMode(it.blockNo, it.ac, it.loaded)
		if err != nil {
			it.err = err
			return
		}
		it.loaded = true
		if len(b) > 0 {
			it.block = b
			return
		}
		it.blockNo++
	}
}

// Err reports a read error encountered while iterating.
func (it *SSTIter) Err() error { return it.err }

// Valid reports whether the iterator is positioned on an entry.
func (it *SSTIter) Valid() bool { return it.err == nil && it.pos < len(it.block) }

// Entry returns the current entry; only valid while Valid().
func (it *SSTIter) Entry() Entry { return it.block[it.pos] }

// Next advances to the next entry, crossing block boundaries as needed.
func (it *SSTIter) Next() {
	it.pos++
	if it.pos >= len(it.block) {
		it.blockNo++
		it.loadBlock()
	}
}
