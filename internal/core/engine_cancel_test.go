package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
)

// cancelAfter cancels a context once the wrapped algorithm finishes a
// given iteration, so cancellation lands deterministically between
// iterations.
type cancelAfter struct {
	algo.Algorithm
	cancel context.CancelFunc
	after  int
}

func (c *cancelAfter) AfterIteration(iter int) bool {
	done := c.Algorithm.AfterIteration(iter)
	if iter >= c.after {
		c.cancel()
	}
	return done
}

// TestRunCanceledBetweenIterations cancels after the first iteration and
// requires: a prompt error wrapping context.Canceled, no segment leak,
// and a reusable engine (the rerun must succeed fault-free and match an
// untouched engine's result).
func TestRunCanceledBetweenIterations(t *testing.T) {
	el := kron(t, 9, 8, 71)
	g := convert(t, el, 5, 2)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// PageRank(50) would run 50 iterations; the wrapper cancels after 1.
	a := &cancelAfter{Algorithm: algo.NewPageRank(50), cancel: cancel, after: 0}
	if _, err := e.Run(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}

	// The engine must be fully reusable: both streaming segments free,
	// no stuck completions. A full BFS must succeed and match reference.
	b := algo.NewBFS(0)
	st, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatalf("rerun after cancel failed: %v", err)
	}
	if st.TilesProcessed == 0 {
		t.Fatal("rerun processed no tiles")
	}
	reached := 0
	for _, d := range b.Depths() {
		if d >= 0 {
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("rerun reached %d vertices", reached)
	}
}

// TestRunCanceledBeforeStart verifies an already-canceled context stops
// the run before any iteration and keeps the engine reusable.
func TestRunCanceledBeforeStart(t *testing.T) {
	el := kron(t, 9, 4, 72)
	g := convert(t, el, 5, 2)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, algo.NewBFS(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
}

// TestRunCanceledDuringSlide cancels while the slide loop is waiting on
// throttled I/O: the run must return within the deadline (one completion
// plus scheduling slop), drain its in-flight requests, and leave the
// engine reusable.
func TestRunCanceledDuringSlide(t *testing.T) {
	el := kron(t, 10, 8, 73)
	g := convert(t, el, 5, 2)
	opts := smallOpts()
	opts.Cache = CacheNone
	opts.Disks = 1
	opts.Bandwidth = 256 << 10 // ~0.25 MB/s: the stream takes a while
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err = e.Run(ctx, algo.NewPageRank(50))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	if waited := time.Since(begin); waited > 5*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}

	// Reusable afterward, including under the same throttled device.
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
}

// TestRunNilContext documents that a nil ctx means "never canceled".
func TestRunNilContext(t *testing.T) {
	el := kron(t, 9, 4, 74)
	g := convert(t, el, 5, 2)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	//lint:ignore SA1012 explicit nil-context support is part of the API
	if _, err := e.Run(nil, algo.NewBFS(0)); err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
}

// TestRunBadRequestClassified verifies argument errors come back as
// *BadRequestError while I/O failures do not.
func TestRunBadRequestClassified(t *testing.T) {
	el := kron(t, 9, 4, 75)
	g := convert(t, el, 5, 2)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Root outside the vertex range is the caller's fault.
	_, err = e.Run(context.Background(), algo.NewBFS(1<<30))
	var bad *BadRequestError
	if !errors.As(err, &bad) {
		t.Fatalf("out-of-range root returned %T %v, want *BadRequestError", err, err)
	}
	// SCC on an undirected graph likewise.
	if _, err := e.Run(context.Background(), algo.NewSCC()); !errors.As(err, &bad) {
		t.Fatalf("SCC on undirected returned %T %v, want *BadRequestError", err, err)
	}
	// And the engine still runs fine.
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err != nil {
		t.Fatalf("run after bad requests failed: %v", err)
	}
}

// TestRunCanceledWithNextSegmentQueued cancels while segment k is being
// computed with k+1 already verified, split and queued behind it (the
// workers are slow, the simulated device and the driver are not). The
// sweep must notice at its next completion wait, wait out both segments'
// chunks, release both buffers and leave the engine reusable.
func TestRunCanceledWithNextSegmentQueued(t *testing.T) {
	el := kron(t, 10, 8, 76)
	g := convert(t, el, 5, 2)
	opts := smallOpts()
	opts.MemoryBytes = g.DataBytes() / 2
	opts.SegmentSize = 1 // one tile per segment
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := &slowKernel{Algorithm: algo.NewPageRank(50), delay: 200 * time.Microsecond}
	k.hook = func(call int64) {
		if call == 2 {
			cancel()
		}
	}
	if _, err := e.Run(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if n := k.calls.Load(); n > 64 {
		t.Fatalf("run went on for %d edge batches after being canceled at the 2nd", n)
	}
	requireIdle(t, e)

	b := algo.NewBFS(0)
	if _, err := e.Run(context.Background(), b); err != nil {
		t.Fatalf("rerun after cancel failed: %v", err)
	}
	requireDepths(t, "rerun", b.Depths(), graph.RefBFS(graph.NewCSR(el, false), 0))
	requireIdle(t, e)
}
