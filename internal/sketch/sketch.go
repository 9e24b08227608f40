// Package sketch provides the probabilistic data structures used by the
// reproduced systems: count-min sketches (Jaqen's heavy-hitter detector
// and the victim-identification front-end), a Bloom filter (the
// hardware's nominal-feature admission lists, which the clusterer's
// Bloom-sets baseline holds one of per cluster and feature), and a
// heavy-keeper top-k (victim ranking).
//
// Two families coexist, with different compatibility contracts:
//
//   - ReferenceCountMin and Bloom hash with seeded FNV-1a and index with
//     `%`, exactly as the seed implementation did. Bloom's per-key bit
//     placement is pinned by golden experiment hashes (the ablations'
//     Bloom-sets row; a Bloom clusterer has no snapshot), so the index
//     math never changes. ReferenceCountMin is
//     the seed's [][]uint64 count-min: the oracle TurboCountMin is
//     bounded against and the "compatible (FNV)" baseline series of the
//     sketchacc experiment.
//
//   - TurboCountMin and TopK (turbo.go, topk.go) are the wire-speed
//     variants: one 64-bit mix per key, power-of-two masking, and a
//     key's four rows in four lanes of one cache line. TopK holds back
//     the sketch updates of a run of offers to one tracked key and
//     applies them as one, which conservative update makes exact. They
//     are differentially tested against the reference rather than
//     golden-pinned; Jaqen and the victim detector run on them.
package sketch

import "fmt"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash64 computes a seeded FNV-1a hash of an 8-byte value.
func hash64(seed uint64, v uint64) uint64 {
	h := uint64(fnvOffset64) ^ (seed * fnvPrime64)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// HashBytes computes a seeded FNV-1a hash over arbitrary bytes.
func HashBytes(seed uint64, b []byte) uint64 {
	h := uint64(fnvOffset64) ^ (seed * fnvPrime64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Bloom is a fixed-size Bloom filter over 64-bit keys.
type Bloom struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

// NewBloom builds a filter with nbits bits and k hash functions.
func NewBloom(nbits uint64, k int) *Bloom {
	if nbits == 0 || k <= 0 {
		panic(fmt.Sprintf("sketch: invalid bloom geometry bits=%d k=%d", nbits, k))
	}
	return &Bloom{
		bits:   make([]uint64, (nbits+63)/64),
		nbits:  nbits,
		hashes: k,
	}
}

// BloomPosition is the bit position hash function i (0-based) of an
// nbits-wide Bloom filter assigns to key: the whole of the filter's index
// math, exported so a test can construct a false positive.
func BloomPosition(i int, key, nbits uint64) uint64 {
	return hash64(uint64(i)+1, key) % nbits
}

// Insert adds key to the filter.
func (b *Bloom) Insert(key uint64) {
	bits := b.bits
	for i := 0; i < b.hashes; i++ {
		pos := BloomPosition(i, key, b.nbits)
		bits[pos/64] |= 1 << (pos % 64)
	}
}

// Contains reports whether key may have been inserted (false positives
// possible, false negatives impossible).
func (b *Bloom) Contains(key uint64) bool {
	bits := b.bits
	for i := 0; i < b.hashes; i++ {
		pos := BloomPosition(i, key, b.nbits)
		if bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (b *Bloom) Reset() {
	clear(b.bits)
}
