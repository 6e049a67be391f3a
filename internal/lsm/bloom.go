package lsm

import (
	"encoding/binary"
	"sync/atomic"
)

// BloomStats counts Bloom-filter probe outcomes across the SST point lookups
// of one engine run. A negative probe excluded the SST without any flash
// read (the filter paid off); a positive probe let the lookup proceed to the
// data block (including false positives). The counters are atomic and every
// method tolerates a nil receiver, so uninstrumented paths pass no stats at
// zero cost.
type BloomStats struct {
	negative int64
	positive int64
}

// AddNegative records a probe where the filter excluded the SST.
func (s *BloomStats) AddNegative() {
	if s != nil {
		atomic.AddInt64(&s.negative, 1)
	}
}

// AddPositive records a probe that passed the filter.
func (s *BloomStats) AddPositive() {
	if s != nil {
		atomic.AddInt64(&s.positive, 1)
	}
}

// Counts returns the accumulated (negative, positive) probe counts.
func (s *BloomStats) Counts() (negative, positive int64) {
	if s == nil {
		return 0, 0
	}
	return atomic.LoadInt64(&s.negative), atomic.LoadInt64(&s.positive)
}

// Bloom is a standard Bloom filter over record keys, used by the host engine
// (as in MyRocks/RocksDB) to exclude SST files during point lookups. Per the
// paper, the NDP engine does not probe Bloom filters on device — they have
// already been probed on the host side when the invocation was built.
type Bloom struct {
	bits []byte
	k    uint32
}

// NewBloom sizes a filter for n keys at roughly 10 bits per key (k=7), the
// RocksDB default ballpark.
func NewBloom(n int) *Bloom {
	if n < 1 {
		n = 1
	}
	nbits := n * 10
	if nbits < 64 {
		nbits = 64
	}
	return &Bloom{bits: make([]byte, (nbits+7)/8), k: 7}
}

// bloomHash is the 64-bit FNV-1a hash of key, computed inline (the bits
// hash/fnv's New64a sums, without a hash.Hash64 per key), and that hash
// rotated by 31 bits.
func bloomHash(key []byte) (uint64, uint64) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h1 := uint64(offset64)
	for _, c := range key {
		h1 ^= uint64(c)
		h1 *= prime64
	}
	h2 := h1>>33 | h1<<31
	return h1, h2
}

// Add inserts a key.
func (b *Bloom) Add(key []byte) {
	h1, h2 := bloomHash(key)
	nbits := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % nbits
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// MayContain reports whether the key is possibly present.
func (b *Bloom) MayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	nbits := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % nbits
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// appendTo appends the serialized filter to dst.
func (b *Bloom) appendTo(dst []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, b.k), b.bits...)
}

// UnmarshalBloom deserializes a filter.
func UnmarshalBloom(data []byte) *Bloom {
	if len(data) < 4 {
		return &Bloom{bits: nil, k: 7}
	}
	k := binary.LittleEndian.Uint32(data)
	bits := make([]byte, len(data)-4)
	copy(bits, data[4:])
	return &Bloom{bits: bits, k: k}
}
