package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
)

// slowKernel wraps a kernel so that its edge batches take visibly longer
// than the sweep driver's own steps: the driver then always has the next
// segment verified, split and queued behind the one being computed, which
// is the state the slide tests want to be in when something goes wrong.
// hook, when set, is called with the 1-based number of each ProcessEdges
// call, from the worker's goroutine, before the batch is processed.
type slowKernel struct {
	algo.Algorithm
	delay time.Duration
	hook  func(call int64)
	calls atomic.Int64
}

func (s *slowKernel) ProcessEdges(worker int, row, col uint32, src, dst []uint32) {
	n := s.calls.Add(1)
	if s.hook != nil {
		s.hook(n)
	}
	time.Sleep(s.delay)
	s.Algorithm.ProcessEdges(worker, row, col, src, dst)
}

func requireRanks(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("%s: rank[%d] = %g, want %g", what, v, got[v], want[v])
		}
	}
}

func requireDepths(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: depth[%d] = %d, want %d", what, v, got[v], want[v])
		}
	}
}

// requireIdle asserts what a finished or failed sweep must leave behind:
// both streaming buffers free, no work item queued, no group counting.
func requireIdle(t *testing.T, e *Engine) {
	t.Helper()
	checkNoLeakedSegments(t, e)
	if n := len(e.work); n != 0 {
		t.Fatalf("%d work items still queued", n)
	}
	for i := range e.groups {
		if g := &e.groups[i]; g.active || len(g.done) != 0 {
			t.Fatalf("work group %d not drained: active %v, %d unread signals", i, g.active, len(g.done))
		}
	}
}

// TestSlideSegmentShapesAndPolicies runs the overlapped slide at its two
// extremes — one tile per segment, so a segment boundary after nearly every
// work item, and half the budget per segment, so no pool — under each cache
// policy and two codecs, with workers slow enough that segment k+1 is
// always queued while k computes. A buffer handed back to the device
// before its last chunk was decoded shows up as a wrong answer, a decode
// failure or (CI runs this under -race) a data race.
func TestSlideSegmentShapesAndPolicies(t *testing.T) {
	el := kron(t, 10, 8, 77)
	csr := graph.NewCSR(el, false)
	wantRanks := graph.RefPageRank(csr, graph.DefaultPageRank(3))
	wantDepths := graph.RefBFS(csr, 1)
	for _, codec := range []string{"snb", "v3"} {
		g := convertCodec(t, el, 5, 2, codec)
		for _, cache := range []CachePolicy{CacheProactive, CacheLRU, CacheNone} {
			for _, shape := range []string{"one tile", "half the budget"} {
				opts := smallOpts()
				opts.Cache = cache
				opts.MemoryBytes = g.DataBytes() / 2
				opts.SegmentSize = 1 // grown to the largest tile
				if shape == "half the budget" {
					opts.SegmentSize = opts.MemoryBytes / 2
				}
				e, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				what := codec + ", " + shape
				pr := algo.NewPageRank(3)
				if _, err := e.Run(context.Background(), &slowKernel{Algorithm: pr, delay: 2 * time.Microsecond}); err != nil {
					t.Fatalf("%s, cache %d: pagerank: %v", what, cache, err)
				}
				requireRanks(t, what, pr.Ranks(), wantRanks)
				requireIdle(t, e)
				bfs := algo.NewBFS(1)
				if _, err := e.Run(context.Background(), &slowKernel{Algorithm: bfs, delay: 2 * time.Microsecond}); err != nil {
					t.Fatalf("%s, cache %d: bfs: %v", what, cache, err)
				}
				requireDepths(t, what, bfs.Depths(), wantDepths)
				requireIdle(t, e)
				e.Close()
			}
		}
	}
}

// TestSlideCountsMatchBarrierSlide pins the counters that say what was
// fetched, what was served from the pool and what the pool evicted to the
// values the pre-overlap slide (one barrier per segment) produced on the
// same graph and options, recorded from that commit: the overlap may move
// when a segment is retired, never which plan it belongs to, the order of
// retires, or what the policy is asked. PageRank needs every tile every
// iteration, so its counts are exact; BFS's proactive policy may now see a
// slightly later frontier (§VI-C Rule 2), so its bytes are held to +2 %.
func TestSlideCountsMatchBarrierSlide(t *testing.T) {
	type counts struct {
		fetched, fromCache, bytes, requests   int64
		copied, evicted, dropped, compactions int64
	}
	pagerank := map[CachePolicy]counts{
		CacheProactive: {6374, 198, 806992, 110, 80528, 0, 6308, 88},
		CacheLRU:       {3828, 2744, 807188, 102, 807188, 3484, 0, 91},
		CacheNone:      {6572, 0, 1048576, 24, 0, 0, 0, 0},
	}
	bfsBytes := map[CachePolicy]int64{CacheProactive: 671700, CacheLRU: 665816, CacheNone: 923112}

	el := kron(t, 13, 8, 4242)
	g := convert(t, el, 7, 4)
	wantDepths := graph.RefBFS(graph.NewCSR(el, false), 5)
	for cache, want := range pagerank {
		opts := DefaultOptions()
		opts.Threads = 4
		opts.MemoryBytes = 96 << 10
		opts.SegmentSize = 8 << 10
		opts.Cache = cache
		e, err := NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run(context.Background(), algo.NewPageRank(4))
		if err != nil {
			t.Fatal(err)
		}
		got := counts{st.TilesFetched, st.TilesFromCache, st.BytesRead, st.IORequests,
			st.Mem.CopiedBytes, st.Mem.EvictedTiles, st.Mem.DroppedTiles, st.Mem.Compactions}
		if got != want {
			t.Errorf("cache %d: pagerank counts %+v, the barrier slide's were %+v", cache, got, want)
		}
		bfs := algo.NewBFS(5)
		st, err = e.Run(context.Background(), bfs)
		if err != nil {
			t.Fatal(err)
		}
		requireDepths(t, "bfs", bfs.Depths(), wantDepths)
		if limit := bfsBytes[cache] + bfsBytes[cache]/50; st.BytesRead > limit {
			t.Errorf("cache %d: bfs read %d bytes, more than 1.02x the barrier slide's %d", cache, st.BytesRead, bfsBytes[cache])
		}
		e.Close()
	}
}

// TestSlideSharedBatchOfEight rides eight co-scheduled BFS runs over a
// slide of one-tile segments: every fetched tile fans out to up to eight
// runs' work items, all counted in the segment's one group.
func TestSlideSharedBatchOfEight(t *testing.T) {
	el := kron(t, 10, 8, 78)
	g := convert(t, el, 5, 2)
	csr := graph.NewCSR(el, false)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 8
	opts.MemoryBytes = g.DataBytes() / 2
	opts.SegmentSize = 1
	e, s := newSched(t, g, opts)

	// The first run holds the sweep at its first iteration boundary until
	// the other seven are admitted, so all eight share every later sweep.
	first := newGated(algo.NewBFS(0))
	riders := []*algo.BFS{first.Algorithm.(*algo.BFS)}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = s.Run(context.Background(), first)
	}()
	<-first.entered
	for i := 1; i < 8; i++ {
		b := algo.NewBFS(uint32(i * 17))
		riders = append(riders, b)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), b)
		}()
	}
	waitActive(t, s, 8)
	close(first.release)
	wg.Wait()
	for i, b := range riders {
		if errs[i] != nil {
			t.Fatalf("rider %d: %v", i, errs[i])
		}
		root := uint32(0)
		if i > 0 {
			root = uint32(i * 17)
		}
		requireDepths(t, "rider", b.Depths(), graph.RefBFS(csr, root))
	}
	requireIdle(t, e)
}
