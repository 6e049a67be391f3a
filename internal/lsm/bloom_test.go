package lsm

import (
	"bytes"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"
)

// fnvBloom is the filter as first written: hash/fnv's 64-bit FNV-1a and one
// (h1 + i·h2) mod nbits per probe, the sum taken mod 2⁶⁴.
type fnvBloom struct {
	bits []byte
	k    uint32
}

func fnvHash(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	return h1, h1>>33 | h1<<31
}

func (b *fnvBloom) add(key []byte) {
	h1, h2 := fnvHash(key)
	nbits := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % nbits
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b *fnvBloom) mayContain(key []byte) bool {
	h1, h2 := fnvHash(key)
	nbits := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % nbits
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// TestBloomMatchesFNV pins the filter's bits to the hash/fnv formulation for
// random keys (empty and long ones included) over filter sizes from the 64-bit
// floor up: odd byte counts, powers of two (where 2⁶⁴ mod nbits is 0) and
// sizes where it is not, at the default k and at larger ones. The stored SSTs
// carry these bits, and the storage digests cover only two loads of one seed.
func TestBloomMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randKey := func() []byte {
		k := make([]byte, rng.Intn(24))
		rng.Read(k)
		return k
	}
	wrapped := 0
	for _, c := range []struct {
		keys   int // NewBloom's n; 0 sizes the filter by nbytes instead
		nbytes int
		k      uint32
	}{
		{keys: 1}, {keys: 5}, {keys: 7}, {keys: 13}, {keys: 100}, {keys: 1001}, {keys: 4099},
		{nbytes: 8, k: 7}, {nbytes: 128, k: 7}, {nbytes: 1 << 12, k: 11}, {nbytes: 9, k: 16}, {nbytes: 12345, k: 23},
	} {
		f := NewBloom(c.keys)
		if c.keys == 0 {
			f = &Bloom{bits: make([]byte, c.nbytes), k: c.k}
		}
		ref := &fnvBloom{bits: make([]byte, len(f.bits)), k: f.k}
		n := max(c.keys, c.nbytes/2)
		for i := 0; i < n; i++ {
			key := randKey()
			f.Add(key)
			ref.add(key)
			if h1, h2 := fnvHash(key); wraps(h1, h2, f.k) {
				wrapped++
			}
		}
		if !bytes.Equal(f.bits, ref.bits) {
			t.Fatalf("%d-byte filter, k=%d: bits differ from the hash/fnv reference", len(f.bits), f.k)
		}
		for i := 0; i < 2000; i++ {
			key := randKey()
			if got, want := f.MayContain(key), ref.mayContain(key); got != want {
				t.Fatalf("%d-byte filter, k=%d: MayContain(%x) = %v, reference %v", len(f.bits), f.k, key, got, want)
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no key's h1 + i·h2 wrapped past 2⁶⁴: the carry path went untested")
	}
}

// wraps reports whether h1 + i·h2 passes 2⁶⁴ for some probe i < k.
func wraps(h1, h2 uint64, k uint32) bool {
	for i := uint32(1); i < k; i++ {
		if hi, lo := bits.Mul64(uint64(i), h2); hi != 0 {
			return true
		} else if _, carry := bits.Add64(h1, lo, 0); carry != 0 {
			return true
		}
	}
	return false
}
