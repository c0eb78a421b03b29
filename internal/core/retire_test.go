package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// A kron graph has isolated vertices in nearly every tile row, so a rule
// that waits for a whole row to be visited never fires on it: these are the
// BFS figures recorded on this graph before tiles retired one by one
// (memory a quarter of the tile data, four workers), and BFS must now stay
// strictly below them under every cache policy while its depths still equal
// the reference. With selective fetching off the engine sweeps every tile
// and keeps no tile out of the pool on a kernel's say-so, so retirement
// changes nothing — not a byte read — and the answer must not notice.
func TestBFSRetiresTiles(t *testing.T) {
	el := kron(t, 12, 8, 41)
	g := convert(t, el, 6, 4)
	want := graph.RefBFS(graph.NewCSR(el, false), 1)
	isolated := 0
	for _, d := range want {
		if d < 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("the graph has no vertex outside the root's component")
	}
	nonEmpty := int64(0)
	for i := 0; i < g.Layout.NumTiles(); i++ {
		if g.TupleCount(i) > 0 {
			nonEmpty++
		}
	}
	for _, tc := range []struct {
		policy       CachePolicy
		tiles, bytes int64 // at the parent commit
		allBytes     int64 // with selective fetching off, then and now
	}{
		{CacheProactive, 4529, 360960, 560864},
		{CacheLRU, 4529, 361556, 562312},
		{CacheNone, 4529, 431832, 655360},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			opts := smallOpts()
			opts.Cache = tc.policy
			opts.MemoryBytes = g.DataBytes() / 4
			opts.SegmentSize = opts.MemoryBytes / 8
			b := algo.NewBFS(1)
			st := runAlg(t, g, opts, b)
			requireDepths(t, "selective", b.Depths(), want)
			if st.TilesProcessed >= tc.tiles || st.BytesRead >= tc.bytes {
				t.Errorf("TilesProcessed = %d, BytesRead = %d: not below the %d and %d of whole-row retirement",
					st.TilesProcessed, st.BytesRead, tc.tiles, tc.bytes)
			}

			opts.Selective = false
			b = algo.NewBFS(1)
			st = runAlg(t, g, opts, b)
			requireDepths(t, "non-selective", b.Depths(), want)
			if st.TilesSkipped != 0 || st.TilesProcessed != int64(st.Iterations)*nonEmpty || st.BytesRead != tc.allBytes {
				t.Fatalf("selective fetching off: %d tiles processed and %d skipped in %d iterations over %d non-empty tiles, %d bytes read, want %d",
					st.TilesProcessed, st.TilesSkipped, st.Iterations, nonEmpty, st.BytesRead, tc.allBytes)
			}
		})
	}
}

// audited wraps a BFS rider of a shared sweep and checks the engine against
// the rider's own tile mask: in every iteration the rider must be handed
// exactly the non-empty tiles its NeedTileThisIter asked for. It also keeps,
// on a clock shared by all riders that ticks at every AfterIteration, when
// the rider retired each tile (BFS.NeedTileNextIter turns false exactly
// then) and when it was last handed a batch of it.
type audited struct {
	algo.Algorithm
	g         *tile.Graph
	clock     *atomic.Int64
	asked     []bool
	gotAt     []atomic.Int64 // clock reading of the tile's last batch, 0 if none
	iterStart int64          // clock reading when the iteration began
	retiredAt []int64        // clock reading after the retiring iteration, 0 while live
	problem   string         // first discrepancy, reported after the run
}

func newAudited(a algo.Algorithm, g *tile.Graph, clock *atomic.Int64) *audited {
	n := g.Layout.NumTiles()
	return &audited{Algorithm: a, g: g, clock: clock,
		asked: make([]bool, n), gotAt: make([]atomic.Int64, n), retiredAt: make([]int64, n)}
}

func (a *audited) BeforeIteration(iter int) {
	a.iterStart = a.clock.Add(1)
	a.Algorithm.BeforeIteration(iter)
}

func (a *audited) NeedTileThisIter(row, col uint32) bool {
	need := a.Algorithm.NeedTileThisIter(row, col)
	a.asked[a.g.Layout.DiskIndex(row, col)] = need
	return need
}

func (a *audited) ProcessEdges(worker int, row, col uint32, src, dst []uint32) {
	a.gotAt[a.g.Layout.DiskIndex(row, col)].Store(a.clock.Load())
	a.Algorithm.ProcessEdges(worker, row, col, src, dst)
}

func (a *audited) AfterIteration(iter int) bool {
	for i := range a.asked {
		got := a.gotAt[i].Load() >= a.iterStart
		if a.g.TupleCount(i) > 0 && got != a.asked[i] && a.problem == "" {
			a.problem = fmt.Sprintf("iteration %d, tile %d: asked for = %v, handed = %v", iter, i, a.asked[i], got)
		}
		a.asked[i] = false
	}
	done := a.Algorithm.AfterIteration(iter)
	now := a.clock.Add(1)
	for i := range a.retiredAt {
		c := a.g.Layout.CoordAt(i)
		if a.retiredAt[i] == 0 && !a.Algorithm.NeedTileNextIter(c.Row, c.Col) {
			a.retiredAt[i] = now
		}
	}
	return done
}

// Eight BFS riders share every sweep, each with its own frontier and its
// own retired tiles. The union mask must keep a tile in the stream for as
// long as any rider wants it and keep it away from the riders that do not:
// every rider is handed exactly what it asked for in every iteration, all
// depths equal the reference, and at least one tile was handed to a rider
// after another rider had retired it.
func TestSharedSweepRidersRetireDifferentTiles(t *testing.T) {
	el := kron(t, 11, 8, 43)
	g := convert(t, el, 5, 2)
	csr := graph.NewCSR(el, false)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 8
	opts.MemoryBytes = g.DataBytes() / 4
	opts.SegmentSize = opts.MemoryBytes / 8
	e, s := newSched(t, g, opts)

	// The first run holds the sweep at its first iteration boundary until
	// the other seven are admitted, so it stays one level ahead of them.
	var clock atomic.Int64
	roots := []uint32{0, 17, 34, 51, 68, 85, 102, 119}
	riders := make([]*audited, len(roots))
	for i, root := range roots {
		riders[i] = newAudited(algo.NewBFS(root), g, &clock)
	}
	first := newGated(riders[0])
	var wg sync.WaitGroup
	errs := make([]error, len(riders))
	run := func(i int, a algo.Algorithm) {
		defer wg.Done()
		_, errs[i] = s.Run(context.Background(), a)
	}
	wg.Add(1)
	go run(0, first)
	<-first.entered
	for i := 1; i < len(riders); i++ {
		wg.Add(1)
		go run(i, riders[i])
	}
	waitActive(t, s, len(riders))
	close(first.release)
	wg.Wait()

	for i, a := range riders {
		if errs[i] != nil {
			t.Fatalf("rider %d: %v", i, errs[i])
		}
		if a.problem != "" {
			t.Fatalf("rider %d: %s", i, a.problem)
		}
		requireDepths(t, fmt.Sprintf("rider %d", i), a.Algorithm.(*algo.BFS).Depths(), graph.RefBFS(csr, roots[i]))
	}
	outlived := 0
	for i := 0; i < g.Layout.NumTiles(); i++ {
		for _, a := range riders {
			for _, b := range riders {
				if a.retiredAt[i] != 0 && b.gotAt[i].Load() >= a.retiredAt[i] {
					outlived++
				}
			}
		}
	}
	if outlived == 0 {
		t.Fatal("no rider was handed a tile that another rider had already retired")
	}
	requireIdle(t, e)
}
