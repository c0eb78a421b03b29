package algo

import (
	"math/bits"
	"sync/atomic"

	"github.com/gwu-systems/gstore/internal/grid"
)

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
func (b *bitset) Clear() { clear(b.words) }

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
		n += bits.OnesCount64(w)
	}
	return n
}

// SizeBytes reports the bitmap's footprint.
func (b *bitset) SizeBytes() int64 { return int64(len(b.words)) * 8 }

// retirement is the traversal kernels' exact form of §III's "the adjacency
// list of a previously visited node will never need to be accessed again",
// at the tile granularity the engine fetches at. A tuple with an endpoint
// that was visited before the current iteration began is spent: that
// endpoint is on this iteration's frontier or has been, and it can never be
// discovered, so nothing crosses the tuple later. A tile holding only such
// tuples is dead, and skipping it cannot change an answer.
//
// Within an iteration every batch of a tile marks it seen, and live when
// the batch held a tuple that is not spent. fold retires the tiles that
// were seen and never live — which is exact only because the engine
// delivers every batch of a tile it dispatches before it calls
// AfterIteration. "Visited before the iteration began" is the same
// whichever batch asks, so a run retires the same tiles in the same
// iterations however many workers race. Bits are indexed by
// Layout.DiskIndex.
type retirement struct {
	layout           *grid.Layout
	seen, live, dead bitset
}

func newRetirement(l *grid.Layout) retirement {
	n := uint32(l.NumTiles())
	return retirement{layout: l, seen: *newBitset(n), live: *newBitset(n), dead: *newBitset(n)}
}

// observe records one batch of tile (row, col); safe for concurrent use.
func (t *retirement) observe(row, col uint32, live bool) {
	i := uint32(t.layout.DiskIndex(row, col))
	t.seen.Set(i)
	if live {
		t.live.Set(i)
	}
}

// fold ends an iteration (not concurrent-safe).
func (t *retirement) fold() {
	for i, seen := range t.seen.words {
		t.dead.words[i] |= seen &^ t.live.words[i]
	}
	t.seen.Clear()
	t.live.Clear()
}

// retired reports whether tile (row, col) can never produce work again.
func (t *retirement) retired(row, col uint32) bool {
	return t.dead.Has(uint32(t.layout.DiskIndex(row, col)))
}

func (t *retirement) sizeBytes() int64 { return 3 * t.dead.SizeBytes() }
