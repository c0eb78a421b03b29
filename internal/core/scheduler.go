package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
)

// ErrQueueFull is returned by Scheduler.Run when the batch and the
// admission queue are both at capacity; servers surface it as HTTP 429.
var ErrQueueFull = errors.New("core: run queue full")

// ErrSchedulerClosed is returned by Scheduler.Run after Close.
var ErrSchedulerClosed = errors.New("core: scheduler closed")

// Scheduler admits up to Options.MaxConcurrentRuns algorithm runs onto
// one engine and steps them through a *shared* slide-cache-rewind sweep:
// each Engine.step plans a single tile stream over the union of the
// co-scheduled algorithms' NeedTileThisIter sets, dispatches every
// fetched tile once per interested run, and retires segments under the
// union of their NeedTileNextIter predicates. The run loop and the stats
// are the engine's; the Scheduler owns admission, the bounded queue, the
// join barrier between steps and the hand-off of a finished run's slot,
// and nothing else — a single admitted run does exactly what Engine.Run
// does, on the scheduler's goroutine. In a semi-external store
// the tile stream is the scarce resource; sharing one pass across N
// queries is what lets aggregate throughput scale with concurrency
// instead of degrading linearly (FlashGraph's page cache and
// GraphChi-DB's online serving make the same argument).
//
// Runs submitted while a sweep is mid-iteration join at the next
// iteration boundary (the join barrier), so every run still sees each of
// its own iterations over a complete tile pass and results are identical
// to solo execution. Runs beyond MaxConcurrentRuns wait in a bounded
// FIFO queue (context-aware); beyond MaxQueuedRuns they are rejected
// with ErrQueueFull.
//
// A Scheduler owns its engine's sweep: Engine.Run must not be called
// concurrently with Scheduler.Run on the same engine.
type Scheduler struct {
	e        *Engine
	maxRuns  int
	maxQueue int

	// PersonalRunHook, when non-nil, observes every underlying run the
	// personalized-query path executes — once per solo BFS (an idle
	// engine, or a window that closed with one distinct root) and once
	// per coalesced msbfs, with the undivided stats, never once per rider.
	// Servers use it to publish engine counters without double counting.
	// Set it before the first RunPersonalBFS; it is not synchronized.
	PersonalRunHook func(st *Stats, err error)

	mu       sync.Mutex
	cond     *sync.Cond // signals sweepLoop exit (Close waits on it)
	pending  []*runState
	queue    []*queuedRun
	active   int // admitted runs: in the batch or in pending
	sweeping bool
	closed   bool

	// Personalized-query coalescing state (see personal.go).
	window     time.Duration
	pmu        sync.Mutex
	curBatch   *personalBatch
	pclosed    bool
	personalWG sync.WaitGroup
}

// queuedRun is one run waiting for admission.
type queuedRun struct {
	r        *runState
	admit    chan struct{} // closed on admission or rejection
	err      error         // set before admit closes when rejected
	admitted bool
	enqueued time.Time
}

// NewScheduler wraps e. Concurrency limits come from the engine's
// options (MaxConcurrentRuns, MaxQueuedRuns).
func NewScheduler(e *Engine) *Scheduler {
	s := &Scheduler{
		e:        e,
		maxRuns:  e.opts.MaxConcurrentRuns,
		maxQueue: e.opts.MaxQueuedRuns,
		window:   e.opts.BatchWindow,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// QueueDepth reports how many runs are currently waiting for admission.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Accepting reports whether the scheduler still admits new runs (false
// once Close has begun). Readiness probes use it to drain traffic ahead
// of shutdown.
func (s *Scheduler) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Run executes a through the shared sweep and blocks until it finishes.
// Semantics match Engine.Run: *BadRequestError for Init failures, an
// error wrapping ctx.Err() on cancellation (whether canceled in the
// queue or mid-sweep), partial stats alongside an *IntegrityError, and
// (stats, nil) on success. ErrQueueFull reports admission overflow
// without running anything. A run that leaves the queue without ever
// being admitted — canceled, or rejected by Close — still returns stats
// carrying its QueueWait alongside the error, so queue-latency metrics
// see the waits that never converted into work (dropping them would
// survivorship-bias the histogram toward fast admissions).
func (s *Scheduler) Run(ctx context.Context, a algo.Algorithm) (*Stats, error) {
	r, err := s.e.prepare(ctx, a)
	if err != nil {
		return nil, err
	}
	r.done = make(chan struct{})

	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return nil, ErrSchedulerClosed
	case s.active < s.maxRuns:
		s.admitLocked(r)
		s.mu.Unlock()
	case len(s.queue) >= s.maxQueue:
		s.mu.Unlock()
		return nil, ErrQueueFull
	default:
		qr := &queuedRun{r: r, admit: make(chan struct{}), enqueued: time.Now()}
		s.queue = append(s.queue, qr)
		s.mu.Unlock()
		select {
		case <-qr.admit:
			if qr.err != nil {
				r.stats.QueueWait = time.Since(qr.enqueued)
				return r.stats, qr.err
			}
		case <-ctx.Done():
			s.mu.Lock()
			if !qr.admitted {
				if i := slices.Index(s.queue, qr); i >= 0 {
					s.queue = slices.Delete(s.queue, i, i+1) // zeroes the vacated tail slot
				}
				s.mu.Unlock()
				r.stats.QueueWait = time.Since(qr.enqueued)
				return r.stats, fmt.Errorf("core: run canceled while queued: %w", ctx.Err())
			}
			// Admitted in the race window: the sweep owns the run now and
			// will finish it as canceled at its next poll point.
			s.mu.Unlock()
		}
	}

	<-r.done
	return r.outcome()
}

// admitLocked moves a prepared run into the pending set and makes sure a
// sweep loop is driving. Callers hold s.mu.
func (s *Scheduler) admitLocked(r *runState) {
	s.active++
	s.pending = append(s.pending, r)
	if !s.sweeping {
		s.sweeping = true
		go s.sweepLoop()
	}
}

// Close rejects every queued run, refuses new submissions, and waits for
// the in-flight sweep to drain (admitted runs finish under their own
// contexts; a server shutting down cancels those first). The engine is
// not closed; that stays the caller's job.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, qr := range s.queue {
			qr.err = ErrSchedulerClosed
			close(qr.admit)
		}
		s.queue = nil
	}
	s.mu.Unlock()
	// Reject the open coalescing window and wait out in-flight batched
	// runs before waiting for the sweep itself, so nothing fires into
	// the engine after Close returns.
	s.closePersonal()
	s.mu.Lock()
	for s.sweeping {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// sweepLoop steps the admitted runs until none remain. One loop
// goroutine exists at a time; it exits when the batch drains and is
// relaunched by the next admission.
func (s *Scheduler) sweepLoop() {
	e := s.e
	// A fresh batch lifecycle starts with an empty pool, exactly like
	// Engine.Run; within the loop's lifetime the warm pool carries over
	// between iterations (and into newly joining runs, which is the
	// point of sharing).
	e.mm.Clear()
	var batch []*runState

	for {
		// Join barrier: release the runs the last step finished (each
		// frees a slot for the queue head), then absorb everything
		// admitted since. New runs enter only here, so each sees complete
		// iterations and results match solo execution. Neither slice's
		// spare capacity may keep a finished run — and its kernel's
		// vectors — reachable after its caller has returned.
		s.mu.Lock()
		live := batch[:0]
		for _, r := range batch {
			if r.finished {
				s.releaseLocked(r)
			} else {
				live = append(live, r)
			}
		}
		clear(batch[len(live):])
		batch = append(live, s.pending...)
		clear(s.pending)
		s.pending = s.pending[:0]
		if len(batch) == 0 {
			s.sweeping = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if len(batch) > 64 {
			// Cannot happen (maxRuns ≤ 64 bounds active), but the
			// interest masks hold 64 bits; fail loudly over corrupting
			// them.
			panic("core: sweep batch exceeds 64 runs")
		}
		s.mu.Unlock()

		e.step(batch)
	}
}

// releaseLocked hands a finished (and sealed) run's slot to the queue
// head and wakes the goroutine waiting for the run. Callers hold s.mu.
func (s *Scheduler) releaseLocked(r *runState) {
	s.active--
	for s.active < s.maxRuns && len(s.queue) > 0 {
		qr := s.queue[0]
		s.queue[0] = nil // the backing array outlives the pop
		s.queue = s.queue[1:]
		qr.admitted = true
		qr.r.stats.QueueWait = time.Since(qr.enqueued)
		s.admitLocked(qr.r)
		close(qr.admit)
	}
	close(r.done)
}
