package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
)

// This file is the batched-run abstraction for personalized queries: a
// single-root BFS submission that finds the engine busy waits up to
// Options.BatchWindow for company, and the roots that arrive in that
// window fuse into one multi-source BFS that occupies a single run slot
// of the shared sweep; per-root depth vectors are then demultiplexed
// back to the callers. The bitmask msbfs kernel advances all 64
// traversals per tuple inspection, so the coalesced run costs one slot
// and roughly one traversal's worth of I/O where the one-root-per-slot
// path would have spent up to 64 slots. A root that finds the engine
// idle has no one to wait for and runs a plain BFS at once, and so does
// a window that closes with one distinct root: the msbfs masks cost
// more per vertex than BFS's depth array and buy nothing for one root.

// personalBatch is one open coalescing window and, after it fires, the
// shared outcome every rider demultiplexes from.
type personalBatch struct {
	roots []uint32       // distinct roots, slot-indexed
	slots map[uint32]int // root -> slot (duplicate submissions share)
	ctxs  []context.Context
	timer *time.Timer
	fired bool

	firedAt time.Time
	done    chan struct{}
	depth   func(slot int) []int32 // the run's per-slot depth vectors
	st      *Stats
	err     error
}

// RunPersonalBFS answers one single-root BFS query. A root that finds
// the scheduler idle — no admitted run and no open window — or a
// BatchWindow of zero runs a solo BFS at once. Otherwise the calling
// goroutine parks in the coalescing window, opening one if none is open,
// while the window collects compatible roots; it then receives its own
// depth vector and a per-root view of the shared run's stats
// (fractional I/O attribution, BatchedRoots set to the number of
// coalesced roots). The returned depth slice aliases the run's storage
// and must be treated as read-only.
//
// Error semantics match Run: *BadRequestError for an out-of-range root
// (checked up front, so one bad root never poisons a batch),
// ErrQueueFull / ErrSchedulerClosed from admission, and a wrapped
// ctx.Err() when the caller cancels — the batch keeps running for its
// other riders and is torn down only when every rider has canceled.
func (s *Scheduler) RunPersonalBFS(ctx context.Context, root uint32) ([]int32, *Stats, error) {
	if n := s.e.g.Meta.NumVertices; root >= n {
		return nil, nil, &BadRequestError{Err: fmt.Errorf("core: bfs root %d outside vertex space %d", root, n)}
	}

	s.pmu.Lock()
	if s.pclosed {
		s.pmu.Unlock()
		return nil, nil, ErrSchedulerClosed
	}
	b := s.curBatch
	if b == nil && (s.window <= 0 || s.idle()) {
		s.pmu.Unlock()
		a := algo.NewBFS(root)
		st, err := s.Run(ctx, a)
		if st != nil {
			st.BatchedRoots = 1
		}
		s.notifyPersonal(st, err)
		if err != nil {
			return nil, st, err
		}
		return a.Depths(), st, nil
	}
	if b == nil {
		b = &personalBatch{slots: map[uint32]int{}, done: make(chan struct{})}
		s.curBatch = b
		s.personalWG.Add(1)
		b.timer = time.AfterFunc(s.window, func() { s.firePersonal(b) })
	}
	slot, ok := b.slots[root]
	if !ok {
		slot = len(b.roots)
		b.roots = append(b.roots, root)
		b.slots[root] = slot
	}
	b.ctxs = append(b.ctxs, ctx)
	full := len(b.roots) >= 64
	if full {
		// The interest masks are out of bits: detach while still holding
		// pmu so the next arrival opens a fresh window (firing is async —
		// a rider racing in before firePersonal takes the lock must not
		// grow this batch past 64), then fire without waiting the timer.
		s.curBatch = nil
	}
	s.pmu.Unlock()
	enqueued := time.Now()
	if full {
		go s.firePersonal(b)
	}

	select {
	case <-b.done:
	case <-ctx.Done():
		// The batch runs on for its other riders; this caller leaves with
		// the wait it paid so queue-latency metrics see abandoned waits.
		st := &Stats{Algorithm: "bfs", QueueWait: time.Since(enqueued)}
		return nil, st, fmt.Errorf("core: personalized run canceled while batched: %w", ctx.Err())
	}

	st := s.demuxStats(b, enqueued)
	if b.err != nil {
		return nil, st, b.err
	}
	return b.depth(slot), st, nil
}

// demuxStats builds one rider's view of the batch outcome: a copy of
// the shared stats with I/O divided across the coalesced roots and the
// window wait folded into QueueWait.
func (s *Scheduler) demuxStats(b *personalBatch, enqueued time.Time) *Stats {
	if b.st == nil {
		return nil
	}
	st := *b.st
	st.Algorithm = "bfs"
	if n := len(b.roots); n > 1 {
		st.BytesRead = int64(math.Round(float64(st.BytesRead) / float64(n)))
		st.IORequests = int64(math.Round(float64(st.IORequests) / float64(n)))
	}
	if b.firedAt.After(enqueued) {
		st.QueueWait += b.firedAt.Sub(enqueued)
	}
	return &st
}

// idle reports whether the scheduler has no admitted run, so a new root
// has no company to wait for. Callers hold pmu (lock order pmu → mu).
func (s *Scheduler) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active == 0
}

// firePersonal detaches b (exactly once — the size trigger, the window
// timer, and Close can race here) and runs the batch through the normal
// admission path, so it competes for a slot like any other run and
// overflow still surfaces as ErrQueueFull: a plain BFS when the window
// closed with one distinct root, the multi-source BFS otherwise.
func (s *Scheduler) firePersonal(b *personalBatch) {
	s.pmu.Lock()
	if b.fired {
		s.pmu.Unlock()
		return
	}
	b.fired = true
	if s.curBatch == b {
		s.curBatch = nil
	}
	b.timer.Stop()
	closed := s.pclosed
	s.pmu.Unlock()
	defer s.personalWG.Done()

	b.firedAt = time.Now()
	if closed {
		b.err = ErrSchedulerClosed
		close(b.done)
		return
	}

	// The run's context cancels only when every rider has canceled:
	// one impatient caller must not kill the traversal the rest are
	// waiting on.
	rctx, cancel := mergeCancel(b.ctxs)
	defer cancel()
	var a algo.Algorithm
	if len(b.roots) == 1 {
		bfs := algo.NewBFS(b.roots[0])
		a, b.depth = bfs, func(int) []int32 { return bfs.Depths() }
	} else {
		ms := algo.NewMSBFS(b.roots)
		a, b.depth = ms, ms.Depth
	}
	st, err := s.Run(rctx, a)
	if st != nil {
		st.BatchedRoots = len(b.roots)
	}
	s.notifyPersonal(st, err)
	b.st, b.err = st, err
	close(b.done)
}

// notifyPersonal invokes the observer hook once per underlying run (the
// coalesced run, not once per rider), with the undivided stats.
func (s *Scheduler) notifyPersonal(st *Stats, err error) {
	if s.PersonalRunHook != nil {
		s.PersonalRunHook(st, err)
	}
}

// closePersonal rejects the open window (if any) during Close and waits
// for in-flight coalesced runs to finish, so Close keeps its contract
// that no scheduler work touches the engine after it returns.
func (s *Scheduler) closePersonal() {
	s.pmu.Lock()
	s.pclosed = true
	b := s.curBatch
	s.pmu.Unlock()
	if b != nil {
		s.firePersonal(b) // sees pclosed, fails the riders promptly
	}
	s.personalWG.Wait()
}

// mergeCancel returns a context that is canceled once every ctx in ctxs
// is done. The returned cancel releases the watcher goroutines early.
func mergeCancel(ctxs []context.Context) (context.Context, context.CancelFunc) {
	merged, cancel := context.WithCancel(context.Background())
	var live atomic.Int64
	live.Store(int64(len(ctxs)))
	for _, c := range ctxs {
		go func(c context.Context) {
			select {
			case <-c.Done():
				if live.Add(-1) == 0 {
					cancel()
				}
			case <-merged.Done():
			}
		}(c)
	}
	return merged, cancel
}
