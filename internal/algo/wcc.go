package algo

import (
	"sync/atomic"
)

// WCC computes weakly connected components by min-label propagation
// (Algorithm 2 in the paper, after Shiloach–Vishkin-style parallel CC).
// Because a tile tuple exposes both endpoints, one stored direction
// suffices: the kernel lowers both endpoints' labels toward the minimum,
// which is exactly why the paper needs neither in- and out-edges both nor
// a broadcast step ("No need to broadcast", Algorithm 2 lines 7–10).
//
// Per-tile-row change bitmaps drive selective fetching and proactive
// caching: a tile is needed again only while labels in its row or column
// range are still moving.
type WCC struct {
	ctx     *Context
	labels  []uint32
	changed atomic.Int64
	curRow  *bitset
	nextRow *bitset
	iter0   bool
}

// NewWCC returns a connected-components kernel.
func NewWCC() *WCC { return &WCC{} }

// Name implements Algorithm.
func (w *WCC) Name() string { return "wcc" }

// Init implements Algorithm.
func (w *WCC) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	w.ctx = ctx
	w.labels = make([]uint32, ctx.NumVertices)
	for i := range w.labels {
		w.labels[i] = uint32(i)
	}
	w.curRow = newBitset(ctx.Layout.P)
	w.nextRow = newBitset(ctx.Layout.P)
	w.iter0 = true
	return nil
}

// Labels returns the component labels after the run; every vertex carries
// the minimum vertex ID of its weakly connected component.
func (w *WCC) Labels() []uint32 { return w.labels }

// BeforeIteration implements Algorithm.
func (w *WCC) BeforeIteration(iter int) {
	w.changed.Store(0)
	w.iter0 = iter == 0
}

// ProcessEdges implements Algorithm: the label lowering stays atomic
// (batches race on shared vertices), but the changed counter and the two
// change-map bits — constant for the whole batch — are accumulated on the
// stack and flushed once per batch.
func (w *WCC) ProcessEdges(_ int, row, col uint32, src, dst []uint32) {
	labels := w.labels
	var lowCol, lowRow int64
	for i, s := range src {
		d := dst[i]
		ls := atomic.LoadUint32(&labels[s])
		ld := atomic.LoadUint32(&labels[d])
		switch {
		case ls < ld:
			if atomicMinUint32(&labels[d], ls) {
				lowCol++
			}
		case ld < ls:
			if atomicMinUint32(&labels[s], ld) {
				lowRow++
			}
		}
	}
	if lowCol > 0 {
		w.nextRow.Set(col)
	}
	if lowRow > 0 {
		w.nextRow.Set(row)
	}
	if lowCol+lowRow > 0 {
		w.changed.Add(lowCol + lowRow)
	}
}

// AfterIteration implements Algorithm.
func (w *WCC) AfterIteration(int) bool {
	done := w.changed.Load() == 0
	w.curRow, w.nextRow = w.nextRow, w.curRow
	w.nextRow.Clear()
	w.iter0 = false
	return done
}

// NeedTileThisIter implements Algorithm. Every tile is needed in the
// first iteration; afterwards only tiles whose row or column ranges saw
// label changes.
func (w *WCC) NeedTileThisIter(row, col uint32) bool {
	if w.iter0 {
		return true
	}
	return w.curRow.Has(row) || w.curRow.Has(col)
}

// NeedTileNextIter implements Algorithm (partial information, §VI-C).
func (w *WCC) NeedTileNextIter(row, col uint32) bool {
	return w.nextRow.Has(row) || w.nextRow.Has(col)
}

// MetadataBytes implements Algorithm: the component-ID array and the two
// change maps.
func (w *WCC) MetadataBytes() int64 {
	return int64(len(w.labels))*4 + w.curRow.SizeBytes() + w.nextRow.SizeBytes()
}
