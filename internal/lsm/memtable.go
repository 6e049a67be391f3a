package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
)

// Entry is one key/value pair. Tombstone marks a deletion that masks older
// versions on lower levels until compaction reclaims them.
type Entry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

const maxSkipHeight = 12

// Arena geometry. Keys and values live back to back in byte chunks that grow
// from firstChunkBytes to maxChunkBytes; an item larger than that gets a chunk
// of its own. Nodes and tower links live in fixed-size slabs. Nothing is ever
// reallocated once written, so growth copies no key, value or node.
const (
	chunkShift      = 15
	maxChunkBytes   = 1 << chunkShift // offsets within a chunk fit chunkShift bits
	firstChunkBytes = 1 << 10
	nodeSlabShift   = 8
	nodeSlabLen     = 1 << nodeSlabShift // 256 nodes (8 KiB) per slab
	towerSlabShift  = 10
	towerSlabLen    = 1 << towerSlabShift // 1,024 upper links (4 KiB) per slab
)

// node is one skiplist entry. It holds no Go pointer, so the garbage collector
// never scans a node slab: the key and the value sit back to back in an arena
// chunk at ref, the level-0 link is inline, and the links of levels 1 to
// height-1 are a run of slots in the tower slabs starting at tower. Links are
// node indexes; index 0 is the head, whose links are MemTable.head, so a 0
// link means "no successor".
type node struct {
	prefix uint64 // the key's first 8 bytes, big-endian, zero-padded
	ref    uint32 // chunk<<chunkShift | offset of the key; the value follows it
	keyLen uint32
	valLen uint32
	next0  uint32
	tower  uint32
	tomb   bool
}

// MemTable is the in-memory C0 component: a skiplist, as in RocksDB, laid out
// in a pointer-free arena. Once it reaches its size threshold it becomes
// immutable and is flushed to an SST.
//
// Arena bytes are never rewritten: an overwrite appends the new key/value pair
// and repoints the node. An Entry handed out therefore stays valid and
// unchanged for as long as the caller holds it, whatever is written later.
type MemTable struct {
	seed   int64
	rng    *rand.Rand // created by the first insert
	chunks [][]byte
	nodes  []*[nodeSlabLen]node
	towers []*[towerSlabLen]uint32
	nodeN  uint32 // node indexes handed out, the head's included
	towerN uint32 // next free tower slot

	head   [maxSkipHeight]uint32
	last   [maxSkipHeight]uint32 // the last node on each level (0: the level is empty)
	height int

	count    int
	byteSize int64
	encBytes int64 // SST data-block bytes of the current entries
	maxKey   int   // longest key inserted
}

// DefaultSeed seeds memtable skiplist height generation when the caller does
// not supply a seed of its own.
const DefaultSeed int64 = 42

// NewMemTable returns an empty memtable with the default height source.
func NewMemTable() *MemTable {
	return NewMemTableSeeded(DefaultSeed)
}

// NewMemTableSeeded returns an empty memtable whose skiplist heights are drawn
// from a private RNG seeded with seed, so tower shapes are reproducible and
// independent across memtables. Nothing but the header is allocated until the
// first Put or Delete.
func NewMemTableSeeded(seed int64) *MemTable {
	return &MemTable{seed: seed, height: 1}
}

// Len reports the number of live entries (including tombstones).
func (m *MemTable) Len() int { return m.count }

// ByteSize reports the modelled footprint that decides when the memtable
// rotates: len(key)+len(value)+48 per distinct key, adjusted by the value
// length change on an overwrite. It is a model constant, not the arena's real
// size, and it fixes where SST boundaries fall.
func (m *MemTable) ByteSize() int64 { return m.byteSize }

func (m *MemTable) randomHeight() int {
	h := 1
	for h < maxSkipHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// Put inserts or overwrites a key. The memtable copies key and value.
func (m *MemTable) Put(key, value []byte) { m.insert(key, value, false) }

// Delete inserts a tombstone for key.
func (m *MemTable) Delete(key []byte) { m.insert(key, nil, true) }

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

// encodedLen is an entry's size in an SST data block: flags, two uvarint
// lengths, key, value.
func encodedLen(keyLen, valLen int) int64 {
	return int64(1 + uvarintLen(keyLen) + uvarintLen(valLen) + keyLen + valLen)
}

func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

func (m *MemTable) node(i uint32) *node {
	return &m.nodes[i>>nodeSlabShift][i&(nodeSlabLen-1)]
}

func (m *MemTable) next(n uint32, lvl int) uint32 {
	if n == 0 {
		return m.head[lvl]
	}
	return m.link(m.node(n), lvl)
}

func (m *MemTable) link(nd *node, lvl int) uint32 {
	if lvl == 0 {
		return nd.next0
	}
	t := nd.tower + uint32(lvl-1)
	return m.towers[t>>towerSlabShift][t&(towerSlabLen-1)]
}

func (m *MemTable) setNext(n uint32, lvl int, to uint32) {
	if n == 0 {
		m.head[lvl] = to
		return
	}
	nd := m.node(n)
	if lvl == 0 {
		nd.next0 = to
		return
	}
	t := nd.tower + uint32(lvl-1)
	m.towers[t>>towerSlabShift][t&(towerSlabLen-1)] = to
}

func (m *MemTable) key(nd *node) []byte {
	c, off := m.chunks[nd.ref>>chunkShift], nd.ref&(maxChunkBytes-1)
	return c[off : off+nd.keyLen : off+nd.keyLen]
}

func (m *MemTable) entry(n uint32) Entry {
	nd := m.node(n)
	c, off := m.chunks[nd.ref>>chunkShift], nd.ref&(maxChunkBytes-1)
	e := Entry{Key: c[off : off+nd.keyLen : off+nd.keyLen], Tombstone: nd.tomb}
	if nd.valLen > 0 {
		v := off + nd.keyLen
		e.Value = c[v : v+nd.valLen : v+nd.valLen]
	}
	return e
}

// before reports whether node nd's key orders before key (whose prefix is
// kp): one word comparison, and a byte comparison only when the words tie.
func (m *MemTable) before(nd *node, key []byte, kp uint64) bool {
	if nd.prefix != kp {
		return nd.prefix < kp
	}
	return bytes.Compare(m.key(nd), key) < 0
}

// seek returns the first node whose key is ≥ key (0 if none) and, when prev is
// set, records the last node before key on every level. kp is keyPrefix(key).
func (m *MemTable) seek(key []byte, kp uint64, prev *[maxSkipHeight]uint32) uint32 {
	var n uint32
	var cur *node // n's node; nil while n is the head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for {
			nx := m.head[lvl]
			if cur != nil {
				nx = m.link(cur, lvl)
			}
			if nx == 0 {
				break
			}
			nd := m.node(nx)
			if !m.before(nd, key, kp) {
				break
			}
			n, cur = nx, nd
		}
		if prev != nil {
			prev[lvl] = n
		}
	}
	return m.next(n, 0)
}

// maxChunks is how many chunks a ref can address.
const maxChunks = 1 << (32 - chunkShift)

// arenaFull reports whether the next write might need a chunk a ref cannot
// address. Only endless overwrites get here (4 GiB of arena): ByteSize does
// not grow with an overwrite of equal length, so it never rotates the table.
func (m *MemTable) arenaFull() bool { return len(m.chunks) >= maxChunks-1 }

// store appends key and value to the arena and returns their reference.
func (m *MemTable) store(key, value []byte) uint32 {
	n := len(key) + len(value)
	c := len(m.chunks) - 1
	if c < 0 || len(m.chunks[c])+n > cap(m.chunks[c]) {
		size := firstChunkBytes
		if c >= 0 {
			size = min(2*cap(m.chunks[c]), maxChunkBytes)
		}
		m.chunks = append(m.chunks, make([]byte, 0, max(size, n)))
		c++
		if c >= maxChunks {
			panic(fmt.Sprintf("lsm: memtable arena exceeds %d chunks", c)) // Tree rotates at arenaFull
		}
	}
	off := len(m.chunks[c])
	m.chunks[c] = append(append(m.chunks[c], key...), value...)
	return uint32(c)<<chunkShift | uint32(off)
}

func (m *MemTable) newNode() uint32 {
	if m.nodeN == 0 {
		m.nodeN = 1 // index 0 is the head
	}
	if int(m.nodeN>>nodeSlabShift) == len(m.nodes) {
		m.nodes = append(m.nodes, new([nodeSlabLen]node))
	}
	m.nodeN++
	return m.nodeN - 1
}

// newTower reserves n consecutive link slots inside one tower slab.
func (m *MemTable) newTower(n int) uint32 {
	if int(m.towerN>>towerSlabShift) == len(m.towers) || int(m.towerN&(towerSlabLen-1))+n > towerSlabLen {
		m.towerN = uint32(len(m.towers)) << towerSlabShift
		m.towers = append(m.towers, new([towerSlabLen]uint32))
	}
	m.towerN += uint32(n)
	return m.towerN - uint32(n)
}

func (m *MemTable) insert(key, value []byte, tomb bool) {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	kp := keyPrefix(key)
	var prev [maxSkipHeight]uint32
	if m.count > 0 && m.before(m.node(m.last[0]), key, kp) {
		// Ascending fast path: key sorts after the tail, so the search would end
		// on the last node of every level.
		prev = m.last
	} else if cand := m.seek(key, kp, &prev); cand != 0 && bytes.Equal(m.key(m.node(cand)), key) {
		nd := m.node(cand)
		m.byteSize += int64(len(value)) - int64(nd.valLen)
		m.encBytes += encodedLen(len(key), len(value)) - encodedLen(len(key), int(nd.valLen))
		nd.ref = m.store(key, value)
		nd.valLen = uint32(len(value))
		nd.tomb = tomb
		return
	}
	h := m.randomHeight()
	m.height = max(m.height, h)
	i := m.newNode()
	nd := m.node(i)
	*nd = node{
		prefix: kp,
		ref:    m.store(key, value),
		keyLen: uint32(len(key)),
		valLen: uint32(len(value)),
		tomb:   tomb,
	}
	if h > 1 {
		nd.tower = m.newTower(h - 1)
	}
	for lvl := 0; lvl < h; lvl++ {
		nx := m.next(prev[lvl], lvl)
		m.setNext(i, lvl, nx)
		m.setNext(prev[lvl], lvl, i)
		if nx == 0 {
			m.last[lvl] = i
		}
	}
	m.count++
	m.byteSize += int64(len(key)) + int64(len(value)) + 48
	m.encBytes += encodedLen(len(key), len(value))
	m.maxKey = max(m.maxKey, len(key))
}

// Get returns the entry for key. The boolean reports presence (a tombstone is
// present with Tombstone=true).
func (m *MemTable) Get(key []byte) (Entry, bool) {
	if n := m.seek(key, keyPrefix(key), nil); n != 0 && bytes.Equal(m.key(m.node(n)), key) {
		return m.entry(n), true
	}
	return Entry{}, false
}

// Iter returns an iterator positioned at the first key ≥ start (nil start
// means the smallest key).
func (m *MemTable) Iter(start []byte) *MemIter {
	it := m.iter(start)
	return &it
}

// iter is Iter by value, for a merge source that holds its iterator.
func (m *MemTable) iter(start []byte) MemIter {
	if start == nil {
		return MemIter{m: m, n: m.head[0]}
	}
	return MemIter{m: m, n: m.seek(start, keyPrefix(start), nil)}
}

// appendRange appends the entries with lo ≤ key < hi (nil bounds are
// unbounded) to out. The headers alias the arena, which is never rewritten, so
// they stay valid after the caller releases whatever lock guards the memtable.
func (m *MemTable) appendRange(out []Entry, lo, hi []byte) []Entry {
	n := m.head[0]
	if lo != nil {
		n = m.seek(lo, keyPrefix(lo), nil)
	}
	for ; n != 0; n = m.node(n).next0 {
		e := m.entry(n)
		if hi != nil && bytes.Compare(e.Key, hi) >= 0 {
			break
		}
		out = append(out, e)
	}
	return out
}

// MemIter walks a memtable in key order.
type MemIter struct {
	m *MemTable
	n uint32
}

// Valid reports whether the iterator is positioned on an entry.
func (it *MemIter) Valid() bool { return it.n != 0 }

// Entry returns the current entry; only valid while Valid().
func (it *MemIter) Entry() Entry { return it.m.entry(it.n) }

// Next advances to the next entry.
func (it *MemIter) Next() { it.n = it.m.node(it.n).next0 }
