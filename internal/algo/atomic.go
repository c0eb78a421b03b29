package algo

import "sync/atomic"

// Atomic primitives shared by the kernels. Edge batches are processed by
// many goroutines and — because a tile touches both its row and column
// ranges under symmetry storage — row-partitioning alone cannot make
// metadata writes private, so the kernels use lock-free updates.

// atomicMinUint32 lowers *p to v if v is smaller. Reports whether it
// changed the value.
func atomicMinUint32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// bitset is an atomic bitmap over vertex or tile indices.
type bitset struct {
	words []uint64
}

func newBitset(n uint32) *bitset {
	return &bitset{words: make([]uint64, (uint64(n)+63)/64)}
}

// Set atomically sets bit i and reports whether it was previously clear.
func (b *bitset) Set(i uint32) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Has reports bit i (atomically loaded).
func (b *bitset) Has(i uint32) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<(i&63)) != 0
}

// Clear zeroes the whole set (not concurrent-safe).
func (b *bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Any reports whether any bit is set (not concurrent-safe).
func (b *bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits (not concurrent-safe).
func (b *bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += popcount(w)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// SizeBytes reports the bitmap's footprint.
func (b *bitset) SizeBytes() int64 { return int64(len(b.words)) * 8 }
