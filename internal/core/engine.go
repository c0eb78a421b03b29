package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// BadRequestError marks a Run failure caused by the caller's algorithm
// arguments (an out-of-range BFS root, SCC on an undirected graph, ...)
// rather than by the engine or its storage. Servers use it to separate
// client errors (4xx) from engine failures (5xx).
type BadRequestError struct {
	Err error
}

func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap lets errors.Is/As reach the underlying cause.
func (e *BadRequestError) Unwrap() error { return e.Err }

// errBatchDone signals that every run in a sweep batch finished (all
// canceled) mid-iteration: the sweep tore its pipeline down cleanly and
// there is nothing left to drive. It is a control-flow sentinel, not a
// failure — per-run outcomes live in each runState's err.
var errBatchDone = errors.New("core: every run in the batch finished")

// Engine runs tile algorithms over an on-disk graph with the SCR
// scheduler: it slides segment-sized batched reads over the needed tiles,
// overlapping I/O with processing; retires processed segments into the
// cache pool under the configured policy; and rewinds each iteration to
// consume the pool before issuing any I/O (Figure 8).
//
// One engine drives one sweep at a time, but a sweep may carry a whole
// batch of co-scheduled algorithm runs: the fetched tile stream is planned
// over the union of the batch's selective-fetch sets and each fetched tile
// is dispatched once per interested run, so N concurrent queries share a
// single pass over the disk. There is one run loop — step, which drives a
// batch through one iteration and seals the runs it finished. Run calls it
// for a batch of one; a Scheduler calls it for whatever it has admitted.
type Engine struct {
	g     *tile.Graph
	opts  Options
	array storage.Device
	mm    *mem.Manager

	// deltaStore, when set, layers WAL-backed mutations over the base
	// graph: every dispatched tile is read with the store's current view
	// (deleted edges masked, inserted edges added) and degree queries see
	// the overlay. The base tile files — and with them the cache pool,
	// checksums, and selective-fetch planning — stay untouched.
	deltaStore *delta.Store

	// degrees is the graph's degree file, read and verified by the first
	// run that loads it and kept: the base graph never changes. degMu
	// guards it, as a Scheduler prepares runs on many goroutines.
	degMu   sync.Mutex
	degrees tile.DegreeSource

	work chan workItem
	wg   sync.WaitGroup
	// groups count the outstanding work items of the (at most two)
	// segments whose chunks are on the work queue: segment k uses
	// groups[k&1], as it uses one of the two streaming buffers. The rewind,
	// which finishes before the slide starts, borrows groups[0].
	groups [2]workGroup
	// codec is the graph's tuple codec, resolved once: the engine hands it
	// to the tile package's splitter, counter, decoder and frame
	// validator, and never looks inside it.
	codec   tile.Codec
	workers []workerStat

	// scratch holds the per-iteration planning state reused across
	// iterations and runs; only the (single) sweep driver touches it.
	scratch sweepScratch

	// unattributedBytes accumulates fetched tile bytes whose interested
	// runs all finished before dispatch: the I/O happened but no live run
	// was left to charge. Engine-lifetime counter (see Counters).
	unattributedBytes atomic.Int64

	// raBudget caps the bytes of next-iteration tile ranges (the
	// NeedTileNextIter union) hinted to the device after each sweep.
	raBudget int64
}

// runState is one algorithm run riding a sweep batch: its kernel, its
// private statistics, and its position in its own iteration sequence
// (co-scheduled runs advance one algorithm iteration per shared sweep,
// each counting from its own join).
type runState struct {
	alg   algo.Algorithm
	ctx   context.Context
	stats *Stats
	iter  int

	// finished is set by step (convergence, MaxIterations, cancellation,
	// or a sweep-fatal error) and err is then the run's outcome; step
	// seals the stats of every run it finishes before it returns. done,
	// which only a Scheduler makes, releases the goroutine waiting in
	// Scheduler.Run once the run's slot has been handed on.
	finished bool
	err      error
	done     chan struct{}
	began    time.Time

	// Fractional attribution of shared I/O: a tile fetched for k
	// interested runs charges each of them 1/k of its bytes and requests.
	bytesFrac float64
	reqFrac   float64

	// start is the engine's lifetime counters when the run joined its
	// first step; seal reports the run's window as the difference.
	// Co-scheduled runs overlap, so their windows overlap too (unlike the
	// fractional bytes/requests above).
	joined bool
	start  Counters
	// traced is the run's cumulative figures at its last Options.Trace
	// event, which reports the difference.
	traced traceMark
}

// traceMark is the part of Stats an iteration trace event reports deltas of.
type traceMark struct {
	tiles, cached, skipped int64
	iowait, compute        time.Duration
}

// outcome is what Run returns for a finished run: the stats on success,
// the partial stats beside an *IntegrityError (so the verification and
// mismatch counters still reach the caller's metrics), and only the error
// for every other failure.
func (r *runState) outcome() (*Stats, error) {
	var ie *IntegrityError
	if r.err != nil && !errors.As(r.err, &ie) {
		return nil, r.err
	}
	return r.stats, r.err
}

// prepare validates and initializes a for this engine's graph and wraps
// it in a fresh runState. Init failures come back as *BadRequestError.
func (e *Engine) prepare(ctx context.Context, a algo.Algorithm) (*runState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var degrees tile.DegreeSource
	if e.g.Meta.DegreeFormat != "" {
		var err error
		if degrees, err = e.baseDegrees(); err != nil {
			return nil, err
		}
	}
	if e.deltaStore != nil {
		// The overlay reflects mutations applied before the run began;
		// later batches become visible at iteration boundaries through
		// the per-sweep view capture.
		degrees = e.deltaStore.View().Degrees(degrees)
	}
	actx := &algo.Context{
		NumVertices: e.g.Meta.NumVertices,
		Layout:      e.g.Layout,
		Directed:    e.g.Meta.Directed,
		Half:        e.g.Meta.Half,
		Degrees:     degrees,
		Workers:     e.opts.Threads,
	}
	if err := a.Init(actx); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return &runState{
		alg:   a,
		ctx:   ctx,
		stats: &Stats{Algorithm: a.Name()},
		began: time.Now(),
	}, nil
}

// baseDegrees returns the graph's degree file, loading it on the first
// call that succeeds; a failed load is not kept, so the next run retries.
func (e *Engine) baseDegrees() (tile.DegreeSource, error) {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	if e.degrees == nil {
		d, err := e.g.Degrees()
		if err != nil {
			return nil, err
		}
		e.degrees = d
	}
	return e.degrees, nil
}

// pollBatch marks canceled runs finished and reports how many runs are
// still live: one disconnected client leaves the sweep at the next poll
// point without disturbing its co-scheduled neighbors.
func pollBatch(batch []*runState) int {
	alive := 0
	for _, r := range batch {
		if r.finished {
			continue
		}
		if err := r.ctx.Err(); err != nil {
			r.finished = true
			r.err = fmt.Errorf("core: run canceled: %w", err)
			continue
		}
		alive++
	}
	return alive
}

// statEach applies f to every unfinished run's stats (shared sweep events
// like IO waits and retries are observed by every live run).
func statEach(batch []*runState, f func(*Stats)) {
	for _, r := range batch {
		if !r.finished {
			f(r.stats)
		}
	}
}

// workItem is one unit of compute: one view of a tile's data (the whole
// tile, or one independently decodable chunk of it) for one run. The
// algorithm travels with the item so concurrent Run teardown can never
// leave a worker reading a stale engine-level field. A tile with delta
// data carries it, and each view the position of its first tuple.
type workItem struct {
	alg   algo.Algorithm
	row   uint32
	col   uint32
	data  []byte
	first int
	delta *delta.TileDelta
	grp   *workGroup
}

// workQueueDepth is the capacity of the engine's work queue, in work items
// (a few dozen bytes each; the tile bytes stay in the segment buffers). It
// is deep enough to hold the chunks of a typical segment, so the sweep
// driver queues a whole segment without being paced by the workers and
// then sleeps, instead of competing with them for a core on every hand-off.
const workQueueDepth = 256

// workGroup counts the work items of one segment (or one rewind pass) that
// workers have not finished yet, and keeps the first decode failure among
// them. The sweep driver holds one count of its own from begin until it
// has queued the last item, so the group cannot drain while items are
// still being added; whoever drops the count to zero signals done, exactly
// once per begin. active belongs to the driver alone.
type workGroup struct {
	pending atomic.Int64
	failed  atomic.Pointer[IntegrityError]
	done    chan struct{} // capacity 1: at most one signal is ever unread
	active  bool          // begun, and its done signal not yet consumed
}

func (g *workGroup) begin() {
	g.pending.Store(1)
	g.failed.Store(nil)
	g.active = true
}

// release drops one count: a worker's finished item, or the driver's own
// once dispatch into the group has ended. The worker that drains a group
// yields its core: the driver it just woke has a buffer to recycle and a
// read to submit, and with every core on edges it would otherwise run only
// when the queue runs dry.
func (g *workGroup) release() {
	if g.pending.Add(-1) == 0 {
		g.done <- struct{}{}
		runtime.Gosched()
	}
}

// finish ends dispatch into the group and waits for it.
func (g *workGroup) finish() error {
	g.release()
	return g.wait()
}

// wait blocks until every item of the group is processed and returns the
// first decode failure among them, if any. On an idle group it returns at
// once.
func (g *workGroup) wait() error {
	if g.active {
		<-g.done
		g.active = false
	}
	if ie := g.failed.Load(); ie != nil {
		return ie
	}
	return nil
}

// workerStat is one worker's cumulative accounting, padded so neighboring
// workers never share a cache line on the hot path.
type workerStat struct {
	busyNS atomic.Int64
	chunks atomic.Int64
	_      [112]byte
}

// NewEngine creates an engine over g. The engine owns a storage array on
// the graph's tiles file and a memory manager sized by opts, capped at
// what g can use: min(MemoryBytes, two segments + g.DataBytes()). Close
// releases both.
func NewEngine(g *tile.Graph, opts Options) (*Engine, error) {
	if opts.MemoryBytes == 0 {
		// The paper's semi-external regime: the graph is four times the
		// budget.
		opts.MemoryBytes = max(g.DataBytes()/4, 1<<20)
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	// Every tile must fit in one segment, or it could never be staged.
	// (The paper's 256 MB segments comfortably exceed its tile sizes on
	// the evaluated graphs.) If the configured segments are too small but
	// the memory budget allows, grow them to the largest tile.
	maxTile := int64(0)
	for i := 0; i < g.Layout.NumTiles(); i++ {
		if _, n := g.TileByteRange(i); n > maxTile {
			maxTile = n
		}
	}
	if maxTile > opts.SegmentSize {
		if 2*maxTile > opts.MemoryBytes {
			return nil, fmt.Errorf("core: largest tile is %d bytes but the memory budget is %d; need at least two tile-sized segments",
				maxTile, opts.MemoryBytes)
		}
		opts.SegmentSize = maxTile
	}
	// The budget is a ceiling, not an allocation: memory the graph cannot
	// use is never reserved. A fetched tile is never pooled already and
	// Retire skips tiles that are, so pool use cannot exceed DataBytes; and
	// a segment of DataBytes (never smaller than the largest tile) already
	// plans the whole graph as one segment. Neither cap changes what a run
	// reads, caches or evicts.
	if data := g.DataBytes(); data > 0 {
		pool := min(opts.MemoryBytes-2*opts.SegmentSize, data)
		opts.SegmentSize = min(opts.SegmentSize, data)
		opts.MemoryBytes = 2*opts.SegmentSize + pool
	}
	var array storage.Device
	var err error
	if opts.Backend == "file" {
		array, err = storage.NewFileDevice(g.TilesPath(), storage.FileOptions{
			Workers:   opts.IOWorkers,
			Direct:    opts.DirectIO,
			Bandwidth: opts.Bandwidth,
			Latency:   opts.Latency,
		})
	} else {
		array, err = storage.NewArray(g.TilesFile(), storage.Options{
			NumDisks:  opts.Disks,
			Bandwidth: opts.Bandwidth,
			Latency:   opts.Latency,
		})
	}
	if err != nil {
		return nil, err
	}
	if opts.HDD != nil && opts.HDD.Fraction > 0 {
		// Tiered store (paper §IX, future work): the trailing fraction of
		// the tiles file lives on simulated hard drives. The fast tier is
		// whichever backend was selected above.
		slow, err := storage.NewArray(g.TilesFile(), storage.Options{
			NumDisks:  opts.HDD.Disks,
			Bandwidth: opts.HDD.Bandwidth,
			Latency:   opts.HDD.Latency,
		})
		if err != nil {
			array.Close()
			return nil, err
		}
		boundary := int64(float64(g.DataBytes()) * (1 - opts.HDD.Fraction))
		tiered, err := storage.NewTiered(array, slow, boundary)
		if err != nil {
			array.Close()
			slow.Close()
			return nil, err
		}
		array = tiered
	}
	if opts.Fault != nil {
		faulty, err := storage.NewFaultDevice(array, *opts.Fault)
		if err != nil {
			array.Close()
			return nil, err
		}
		array = faulty
	}
	mman, err := mem.NewManager(opts.MemoryBytes, opts.SegmentSize)
	if err != nil {
		array.Close()
		return nil, err
	}
	e := &Engine{g: g, opts: opts, array: array, mm: mman, codec: g.Meta.TupleCodec(), raBudget: opts.ReadaheadBytes}
	if e.raBudget == 0 && opts.Backend == "file" {
		e.raBudget = 8 << 20
	}
	e.scratch.inCache = make([]uint32, g.Layout.NumTiles())
	for i := range e.groups {
		e.groups[i].done = make(chan struct{}, 1)
	}
	e.workers = make([]workerStat, opts.Threads)
	e.work = make(chan workItem, workQueueDepth)
	for i := 0; i < opts.Threads; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// Counters is a snapshot of an engine's lifetime counters: what its
// device, its dispatcher and its workers have done since NewEngine. A run
// keeps the snapshot taken when it joined its first sweep and reports the
// difference to the one taken when it was sealed (Stats.IO, Faults,
// UnattributedBytes, WorkerBusy, WorkerChunks); the sealing snapshot
// itself travels in Stats.Totals, because the windows of co-scheduled
// runs overlap and only the totals can be published without counting
// anything twice.
type Counters struct {
	// IO is the device's extended counters, injected faults included.
	IO storage.ExtStats
	// UnattributedBytes is the fetched tile bytes that could be charged to
	// no run: every run interested in the tile had finished by the time it
	// was dispatched.
	UnattributedBytes int64
	// WorkerBusy is, per worker ID, the time spent inside kernel code;
	// WorkerChunks the work items processed.
	WorkerBusy   []time.Duration
	WorkerChunks []int64
}

// Counters snapshots the engine's lifetime counters.
func (e *Engine) Counters() Counters {
	c := Counters{
		IO:                e.array.ExtStats(),
		UnattributedBytes: e.unattributedBytes.Load(),
		WorkerBusy:        make([]time.Duration, len(e.workers)),
		WorkerChunks:      make([]int64, len(e.workers)),
	}
	for i := range e.workers {
		c.WorkerBusy[i] = time.Duration(e.workers[i].busyNS.Load())
		c.WorkerChunks[i] = e.workers[i].chunks.Load()
	}
	return c
}

// SetDeltaStore attaches (or, with nil, detaches) a mutable delta layer.
// Must not be called while a run is in flight; the next sweep iteration
// picks up the store's current view.
func (e *Engine) SetDeltaStore(ds *delta.Store) { e.deltaStore = ds }

// DeltaStore returns the attached delta layer, if any.
func (e *Engine) DeltaStore() *delta.Store { return e.deltaStore }

// Close stops the workers and the storage array. The engine must not be
// running.
func (e *Engine) Close() {
	if e.work != nil {
		close(e.work)
		e.wg.Wait()
		e.work = nil
	}
	if e.array != nil {
		e.array.Close()
		e.array = nil
	}
}

// edgeScratch is one worker's decode buffer: the batch of full-ID edges
// the kernel sees in place of tile bytes.
type edgeScratch struct {
	src, dst [tile.V3BlockTuples]uint32
}

// feed decodes one view of tile (row, col), whose first tuple is at
// position first, block by block and hands the kernel each batch of edges
// on behalf of worker; with the tile's delta td, less the masked base
// tuples, and the view at position 0 adds the inserted edges. It is the
// only path from tile bytes to a kernel, shared by the engine's workers
// and MemGraph. Every caller hands it checksum-verified and
// frame-validated tile data, so a block that fails to decode is damage
// the checksum could not see or a decoder bug: it ends the view and comes
// back as an *IntegrityError naming the tile, which fails the run.
func (sc *edgeScratch) feed(a algo.Algorithm, worker int, g *tile.Graph, codec tile.Codec, row, col uint32, data []byte, first int, td *delta.TileDelta) *IntegrityError {
	rowBase, _ := g.Layout.VertexRange(row)
	colBase, _ := g.Layout.VertexRange(col)
	masked, _ := td.Masked() // dispatchTile checked the error
	masked = masked[sort.SearchInts(masked, first):]
	for pos := first; len(data) > 0; {
		n, rest, err := tile.DecodeBlock(data, codec, rowBase, colBase, &sc.src, &sc.dst)
		if err != nil {
			return &IntegrityError{Graph: g.Meta.Name, Tile: g.Layout.DiskIndex(row, col), Row: row, Col: col, Err: err}
		}
		kept := n
		if len(masked) > 0 && masked[0] < pos+n {
			kept, masked = delta.DropMasked(sc.src[:n], sc.dst[:n], pos, masked)
		}
		if kept > 0 {
			a.ProcessEdges(worker, row, col, sc.src[:kept], sc.dst[:kept])
		}
		pos += n
		data = rest
	}
	if td == nil || first != 0 {
		return nil
	}
	for i := 0; ; {
		var n int
		if n, i = td.Inserts(i, sc.src[:], sc.dst[:]); n == 0 {
			return nil
		}
		a.ProcessEdges(worker, row, col, sc.src[:n], sc.dst[:n])
	}
}

// worker is one compute goroutine with a stable ID — kernels key their
// private accumulator slabs off it — and its own decode scratch.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	ws := &e.workers[id]
	var sc edgeScratch
	for item := range e.work {
		begin := time.Now()
		if ie := sc.feed(item.alg, id, e.g, e.codec, item.row, item.col, item.data, item.first, item.delta); ie != nil {
			item.grp.failed.CompareAndSwap(nil, ie)
		}
		ws.busyNS.Add(int64(time.Since(begin)))
		ws.chunks.Add(1)
		item.grp.release()
	}
}

// dispatchTile fans one tile out to every interested, still-live run of
// the batch and updates their per-run counters. fetchedBytes > 0 marks a
// freshly fetched tile whose bytes are attributed fractionally across
// the interested runs; fetchedBytes == 0 marks a cache-pool hit. When
// every interested run finished between planning and dispatch, fetched
// bytes have nobody left to charge and land on the engine-level
// unattributed counter instead of vanishing.
//
// The tile's work items join grp. While the work queue is full the
// dispatcher also listens for prev — the group of the segment queued ahead
// of this one, nil when there is none — draining, and calls settle to
// retire that segment the moment it does rather than after the last send.
func (e *Engine) dispatchTile(batch []*runState, mask uint64, ref mem.TileRef, fetchedBytes int64, grp, prev *workGroup, settle func() error) error {
	share := 0
	for j := range batch {
		if mask&(1<<uint(j)) != 0 && !batch[j].finished {
			share++
		}
	}
	if share == 0 {
		if fetchedBytes > 0 {
			e.unattributedBytes.Add(fetchedBytes)
		}
		return nil
	}
	// The tile is cut into independently decodable views once, however
	// many runs ride it: the load-balancing move that keeps all workers
	// busy on a segment dominated by one dense tile. Work items copy the
	// view headers, so the slice is reused by the next tile.
	sc := &e.scratch
	sc.views = tile.SplitViews(sc.views[:0], ref.Data, e.codec, e.opts.chunkBytes)
	// A tile with delta data is read as base ∪ delta in edge space (feed):
	// its work items carry the delta and each view's first tuple position.
	// The base bytes are never rewritten, so pooled cache bytes stay the
	// pristine (checksum-verified) base data and survive view changes.
	td := sc.view.Tile(ref.DiskIdx)
	if _, err := td.Masked(); err != nil {
		return &IntegrityError{Graph: e.g.Meta.Name, Tile: ref.DiskIdx, Row: ref.Row, Col: ref.Col, Err: err}
	}
	var prevDone chan struct{} // nil: that select case never fires
	if prev != nil && prev.active {
		prevDone = prev.done
	}
	for j, r := range batch {
		if mask&(1<<uint(j)) == 0 || r.finished {
			continue
		}
		first := 0
		for _, v := range sc.views {
			grp.pending.Add(1)
			item := workItem{alg: r.alg, row: ref.Row, col: ref.Col, data: v, first: first, delta: td, grp: grp}
			if td != nil {
				n, _ := tile.Tuples(v, e.codec) // verifySegment walked the tile's framing
				first += n
			}
			select {
			case e.work <- item:
				continue
			case <-prevDone:
			}
			prev.active, prevDone = false, nil
			err := settle()
			e.work <- item // already counted in grp
			if err != nil {
				return err
			}
		}
		r.stats.Chunks += int64(len(sc.views))
		r.stats.TilesProcessed++
		if td != nil {
			r.stats.DeltaTiles++
		}
		if fetchedBytes > 0 {
			r.stats.TilesFetched++
			r.bytesFrac += float64(fetchedBytes) / float64(share)
		} else {
			r.stats.TilesFromCache++
		}
	}
	return nil
}

// Run executes a on the graph until convergence and returns statistics.
// It is a batch of one stepped on the caller's goroutine: everything a run
// does or reports is in step and seal, which a Scheduler drives the same
// way for the runs it co-schedules.
//
// ctx cancels the run: it is checked between iterations and inside the
// slide loop's completion wait, so a disconnected client or a daemon
// shutdown stops the run within roughly one I/O completion. A canceled
// Run returns an error wrapping ctx.Err(), releases every segment it
// acquired, and leaves the engine reusable for the next Run.
//
// Errors caused by the algorithm's arguments (Init validation) are
// wrapped in *BadRequestError; an *IntegrityError comes with the partial
// stats; everything else is an engine or storage failure.
//
// Run must not be called concurrently with itself or with a Scheduler on
// the same engine; servers co-scheduling queries go through Scheduler.Run
// instead.
func (e *Engine) Run(ctx context.Context, a algo.Algorithm) (*Stats, error) {
	r, err := e.prepare(ctx, a)
	if err != nil {
		return nil, err
	}
	e.mm.Clear()
	for batch := []*runState{r}; !r.finished; {
		e.step(batch)
	}
	return r.outcome()
}

// step drives batch, none of whose runs has finished, through one shared
// iteration — or through none, if every run turns out to be canceled — and
// seals the runs that finished in it. It is the engine's only run loop
// body: the cancellation poll, the kernels' Before/AfterIteration hooks,
// the sweep, the fan-out of a sweep-fatal error to every rider, the
// maxIterations bound and the trace event all happen here and nowhere
// else. The caller owns the engine's sweep for the duration and drops
// finished runs from the batch before it steps again.
func (e *Engine) step(batch []*runState) {
	for _, r := range batch {
		if !r.joined {
			r.joined, r.start = true, e.Counters()
		}
		// Batch occupancy: every rider records the peak company it kept.
		if n := len(batch); n > r.stats.SharedRuns {
			r.stats.SharedRuns = n
		}
	}
	if pollBatch(batch) > 0 {
		var readBefore int64
		if e.opts.Trace != nil {
			readBefore = e.array.Stats().BytesRead
		}
		for _, r := range batch {
			if !r.finished {
				r.alg.BeforeIteration(r.iter)
			}
		}
		switch err := e.sweepIteration(batch); {
		case err == nil:
			for _, r := range batch {
				if r.finished {
					continue
				}
				r.stats.Iterations = r.iter + 1
				converged := r.alg.AfterIteration(r.iter)
				if e.opts.Trace != nil {
					e.traceIteration(r, e.array.Stats().BytesRead-readBefore)
				}
				r.iter++
				if converged || r.iter >= maxIterations {
					r.finished = true
				}
			}
		case errors.Is(err, errBatchDone):
			// Every run was canceled mid-sweep; the outcomes are on the
			// runStates already.
		default:
			// Sweep-fatal: a storage or integrity failure poisons every
			// run that was riding the stream.
			var ie *IntegrityError
			integrity := errors.As(err, &ie)
			for _, r := range batch {
				if r.finished {
					continue
				}
				if integrity {
					r.stats.IntegrityErrors++
				}
				r.finished, r.err = true, err
			}
		}
	}
	for _, r := range batch {
		if r.finished {
			e.seal(r)
		}
	}
}

// traceIteration writes r's Options.Trace line for the iteration it just
// finished; readBytes is what the device read during the (shared) sweep.
func (e *Engine) traceIteration(r *runState, readBytes int64) {
	st, was := r.stats, r.traced
	r.traced = traceMark{st.TilesProcessed, st.TilesFromCache, st.TilesSkipped, st.IOWait, st.Compute}
	metrics.WriteEvent(e.opts.Trace, "iteration",
		metrics.KV{Key: "algo", Value: r.alg.Name()},
		metrics.KV{Key: "iter", Value: r.iter},
		metrics.KV{Key: "tiles", Value: st.TilesProcessed - was.tiles},
		metrics.KV{Key: "cached", Value: st.TilesFromCache - was.cached},
		metrics.KV{Key: "skipped", Value: st.TilesSkipped - was.skipped},
		metrics.KV{Key: "read_bytes", Value: readBytes},
		metrics.KV{Key: "iowait", Value: (st.IOWait - was.iowait).Round(time.Microsecond)},
		metrics.KV{Key: "compute", Value: (st.Compute - was.compute).Round(time.Microsecond)},
		metrics.KV{Key: "pool_used", Value: e.mm.PoolUsed()},
		metrics.KV{Key: "pool_cap", Value: e.mm.PoolCap()})
}

// seal fills in the stats of a run that just finished, however it
// finished: the figures the sweep could not keep as it went. Shared I/O
// is the run's fractional attribution rounded to integers; device, fault,
// unattributed-byte and worker figures are the run's window over the
// engine's lifetime counters.
func (e *Engine) seal(r *runState) {
	st, end := r.stats, e.Counters()
	st.Elapsed = time.Since(r.began)
	st.MetadataBytes = r.alg.MetadataBytes()
	st.Mem = e.mm.Stats()
	st.Storage = e.array.Stats()
	st.BytesRead = int64(math.Round(r.bytesFrac))
	st.IORequests = int64(math.Round(r.reqFrac))
	st.Totals = end
	st.IO = end.IO.Sub(r.start.IO)
	st.Faults = st.IO.Faults
	st.UnattributedBytes = end.UnattributedBytes - r.start.UnattributedBytes
	st.WorkerBusy = make([]time.Duration, len(end.WorkerBusy))
	st.WorkerChunks = make([]int64, len(end.WorkerChunks))
	var busySum, busyMax time.Duration
	for i, busy := range end.WorkerBusy {
		d := busy - r.start.WorkerBusy[i]
		st.WorkerBusy[i] = d
		st.WorkerChunks[i] = end.WorkerChunks[i] - r.start.WorkerChunks[i]
		busySum += d
		busyMax = max(busyMax, d)
	}
	if busySum > 0 {
		mean := float64(busySum) / float64(len(end.WorkerBusy))
		st.Imbalance = float64(busyMax) / mean
	}
}

// sweepScratch is the per-iteration planning state, reused across
// iterations (and across runs on a reused engine) so the Run hot loop
// stays allocation-free once warm: the union need set and its interest
// masks, the in-cache filter, pooled segment plans, the inflight queue
// and its retry counters, the completion buffer, and the tile-ref /
// request / chunk-view staging slices.
type sweepScratch struct {
	needed    []int
	masks     []uint64
	fetch     []int
	fetchMask []uint64
	// deltaOnly holds the needed tiles with delta data and no base
	// tuples (and deltaOnlyMask their interest masks): nothing to fetch.
	deltaOnly     []int
	deltaOnlyMask []uint64
	// inCache[i] == epoch marks tile i as served by this iteration's
	// rewind; bumping epoch clears every mark at once.
	inCache []uint32
	epoch   uint32
	// view is the delta snapshot captured at the top of the current
	// sweep iteration (nil without a delta store); dispatchTile hands its
	// tile deltas to the work items it fans out, so mutations become
	// visible at iteration boundaries and never mid-iteration.
	view *delta.View

	plans  []*segmentPlan
	nplans int

	queue    []inflight
	attempts []int
	comps    []storage.Completion
	refs     []mem.TileRef
	views    [][]byte
	reqVals  []storage.Request
	reqPtrs  []*storage.Request
}

// nextPlan hands out a pooled (or fresh) segment plan with empty tile and
// run lists.
func (sc *sweepScratch) nextPlan() *segmentPlan {
	if sc.nplans < len(sc.plans) {
		p := sc.plans[sc.nplans]
		p.tiles = p.tiles[:0]
		p.runs = p.runs[:0]
		sc.nplans++
		return p
	}
	p := &segmentPlan{}
	sc.plans = append(sc.plans, p)
	sc.nplans++
	return p
}

// sweepIteration performs one shared SCR iteration for a batch of runs:
// union selective-fetch planning, rewind over the cache pool and the
// delta-only tiles (each dispatched once per interested run), then the
// slide over the union of the remaining tiles.
//
// It returns nil on success, errBatchDone when every run finished
// (canceled) mid-sweep, or a sweep-fatal error (storage or integrity
// failure) that the driver must apply to every unfinished run.
func (e *Engine) sweepIteration(batch []*runState) error {
	sc := &e.scratch
	layout := e.g.Layout
	sc.view = nil
	if e.deltaStore != nil {
		sc.view = e.deltaStore.View()
	}
	sc.needed, sc.masks = sc.needed[:0], sc.masks[:0]
	sc.deltaOnly, sc.deltaOnlyMask = sc.deltaOnly[:0], sc.deltaOnlyMask[:0]
	for i := 0; i < layout.NumTiles(); i++ {
		base := e.g.TupleCount(i) != 0
		if !base && sc.view.Tile(i) == nil {
			continue
		}
		c := layout.CoordAt(i)
		mask := e.interest(batch, c.Row, c.Col)
		switch {
		case mask == 0:
		case base:
			sc.needed = append(sc.needed, i)
			sc.masks = append(sc.masks, mask)
		default:
			sc.deltaOnly = append(sc.deltaOnly, i)
			sc.deltaOnlyMask = append(sc.deltaOnlyMask, mask)
		}
	}

	// Rewind (§VI-D): process everything already in memory before any
	// I/O — the pooled tiles, and the delta-only tiles, which hold
	// inserted edges in tiles the base graph left empty.
	if sc.epoch++; sc.epoch == 0 { // wrapped: stale marks could match again
		clear(sc.inCache)
		sc.epoch = 1
	}
	cached := e.mm.CachedTiles()
	if e.opts.Cache == CacheNone {
		cached = nil
	}
	if len(cached) > 0 || len(sc.deltaOnly) > 0 {
		grp := &e.groups[0]
		grp.begin()
		cs := time.Now()
		var err error
		for _, ref := range cached {
			pos := indexSorted(sc.needed, ref.DiskIdx)
			if pos < 0 {
				continue
			}
			sc.inCache[ref.DiskIdx] = sc.epoch
			if err = e.dispatchTile(batch, sc.masks[pos], ref, 0, grp, nil, nil); err != nil {
				break
			}
		}
		for k, di := range sc.deltaOnly {
			if err != nil {
				break
			}
			c := layout.CoordAt(di)
			err = e.dispatchTile(batch, sc.deltaOnlyMask[k], mem.TileRef{DiskIdx: di, Row: c.Row, Col: c.Col}, 0, grp, nil, nil)
		}
		if werr := grp.finish(); err == nil {
			err = werr
		}
		el := time.Since(cs)
		statEach(batch, func(st *Stats) { st.Compute += el })
		if err != nil {
			return err
		}
	}

	sc.fetch = sc.fetch[:0]
	sc.fetchMask = sc.fetchMask[:0]
	for k, di := range sc.needed {
		if sc.inCache[di] != sc.epoch {
			sc.fetch = append(sc.fetch, di)
			sc.fetchMask = append(sc.fetchMask, sc.masks[k])
		}
	}
	if err := e.slide(batch, sc.fetch, sc.fetchMask); err != nil {
		return err
	}
	e.hintReadahead(batch)
	return nil
}

// interest returns the mask of batch's live runs that need tile (row,
// col) this iteration, charging a skipped tile to each live run that does
// not.
func (e *Engine) interest(batch []*runState, row, col uint32) uint64 {
	var mask uint64
	for j, r := range batch {
		if r.finished {
			continue
		}
		if e.opts.Selective && !r.alg.NeedTileThisIter(row, col) {
			r.stats.TilesSkipped++
			continue
		}
		mask |= 1 << uint(j)
	}
	return mask
}

// hintReadahead advises the storage device about the tiles the next
// iteration will fetch: the union of NeedTileNextIter across the
// batch's live runs, minus tiles already pooled (the rewind serves
// those without I/O). Adjacent tiles merge into one sequential hint;
// the total is capped by raBudget so a whole-graph interest set cannot
// flood the page cache.
func (e *Engine) hintReadahead(batch []*runState) {
	if e.raBudget <= 0 {
		return
	}
	layout := e.g.Layout
	budget := e.raBudget
	var curOff, curN int64
	flush := func() {
		if curN > 0 {
			e.array.Readahead(curOff, curN)
			curN = 0
		}
	}
	for i := 0; i < layout.NumTiles() && budget > 0; i++ {
		if e.g.TupleCount(i) == 0 {
			continue
		}
		if e.mm.CachedData(i) != nil {
			flush()
			continue
		}
		if c := layout.CoordAt(i); !e.neededNext(batch, c.Row, c.Col) {
			flush()
			continue
		}
		off, n := e.g.TileByteRange(i)
		if n > budget {
			n = budget
		}
		budget -= n
		if curN > 0 && curOff+curN == off {
			curN += n
		} else {
			flush()
			curOff, curN = off, n
		}
	}
	flush()
}

// neededNext reports whether the next iteration will fetch tile (row, col)
// for some live run of the batch: the union of the kernels'
// NeedTileNextIter — or every tile, when selective fetching is off and the
// sweep does not ask the kernels what to skip either.
func (e *Engine) neededNext(batch []*runState, row, col uint32) bool {
	for _, r := range batch {
		if !r.finished && (!e.opts.Selective || r.alg.NeedTileNextIter(row, col)) {
			return true
		}
	}
	return false
}

// indexSorted returns the position of x in the ascending slice, or -1.
func indexSorted(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case sorted[mid] < x:
			lo = mid + 1
		case sorted[mid] > x:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// plannedTile is one tile's slot within a segment load. mask records
// which runs of the current batch want the tile (bit j = batch[j]).
type plannedTile struct {
	diskIdx  int
	row, col uint32
	bufOff   int64
	n        int64
	mask     uint64
}

// segmentPlan is one segment's worth of tiles plus the contiguous byte
// runs that load them. Gaps between runs come from selective fetching and
// cache hits; all of a plan's runs are submitted as one AIO batch (§V-B:
// "these I/Os would be merged into a single AIO system call").
type segmentPlan struct {
	tiles []plannedTile
	runs  []run
}

type run struct {
	fileOff int64
	bufOff  int64
	n       int64
}

// planSegments packs the tiles to fetch, in disk order, into
// segment-sized plans. masks carries the per-tile run-interest bits
// aligned with toFetch; nil means a single-run batch (every bit-0). The
// returned plans are pooled in the engine's scratch and are invalidated
// by the next planSegments call.
func (e *Engine) planSegments(toFetch []int, masks []uint64) []*segmentPlan {
	sc := &e.scratch
	sc.nplans = 0
	var cur *segmentPlan
	var used int64
	for k, di := range toFetch {
		off, n := e.g.TileByteRange(di)
		if cur != nil && used+n > e.opts.SegmentSize {
			cur = nil
		}
		if cur == nil {
			cur = sc.nextPlan()
			used = 0
		}
		mask := uint64(1)
		if masks != nil {
			mask = masks[k]
		}
		c := e.g.Layout.CoordAt(di)
		cur.tiles = append(cur.tiles, plannedTile{
			diskIdx: di, row: c.Row, col: c.Col, bufOff: used, n: n, mask: mask,
		})
		if last := len(cur.runs) - 1; last >= 0 &&
			cur.runs[last].fileOff+cur.runs[last].n == off &&
			cur.runs[last].bufOff+cur.runs[last].n == used {
			cur.runs[last].n += n
		} else {
			cur.runs = append(cur.runs, run{fileOff: off, bufOff: used, n: n})
		}
		used += n
	}
	return sc.plans[:sc.nplans]
}

// inflight is one submitted segment load: its buffer, its plan, and the
// retry ledger for its outstanding runs.
type inflight struct {
	seg      *mem.Segment
	plan     *segmentPlan
	left     int   // outstanding runs
	attempts []int // retry attempts per run
}

// slide is the pipelined stream of Figure 8: one segment loads while the
// other is processed; processed segments retire into the cache pool. Each
// loaded tile is dispatched once per interested run of the batch, so
// co-scheduled queries consume a single tile stream.
//
// The workers never wait for the driver between segments: as soon as
// segment k's chunks are all on the work queue the driver waits for k+1's
// bytes, verifies and splits them and queues k+1's chunks behind k's, and
// it retires k — caching decision, buffer release, next submit — when k's
// own work group drains, whichever of its waits that interrupts. There are
// still exactly two streaming buffers, plans are submitted and retired in
// plan order, and a buffer goes back to the device only after the last
// chunk decoded from it is done.
//
// Error handling: a failed or short read is re-submitted with capped
// exponential backoff up to Options.MaxRetries times before it fails the
// sweep (and with it every run of the batch). Every error path drains the
// in-flight completions it owns, waits out the chunks already queued, and
// releases every acquired segment, so a failed sweep leaves the engine
// reusable: the next sweep starts with both streaming buffers free, an
// empty work queue and an empty completion stream.
//
// Cancellation: every run's ctx is polled before each completion wait, so
// a canceled run leaves the batch within one I/O completion; the sweep
// itself tears down (errBatchDone) only when no live run remains.
func (e *Engine) slide(batch []*runState, toFetch []int, masks []uint64) error {
	plans := e.planSegments(toFetch, masks)
	if len(plans) == 0 {
		return nil
	}
	sc := &e.scratch

	// The inflight queue is pre-sized to the plan count so taking
	// &queue[i] stays valid across appends; the retry ledgers slice one
	// shared arena.
	if cap(sc.queue) < len(plans) {
		sc.queue = make([]inflight, 0, len(plans))
	}
	queue := sc.queue[:0]
	totalRuns := 0
	for _, p := range plans {
		totalRuns += len(p.runs)
	}
	if cap(sc.attempts) < totalRuns {
		sc.attempts = make([]int, totalRuns)
	}
	attemptArena := sc.attempts[:totalRuns]
	for i := range attemptArena {
		attemptArena[i] = 0
	}
	arenaUsed := 0

	var (
		next        int
		outstanding int           // async requests in flight across the whole queue
		tail        int           // segments retired so far: queue[tail] is the oldest still held
		settling    time.Duration // time settle spent retiring and submitting, not waiting
	)

	// fail tears the pipeline down after err: it consumes every
	// completion still owed to us, waits until no worker reads a segment
	// buffer any more, and returns the segments held by the not-yet-retired
	// tail of the queue (entries before tail were released when they
	// retired).
	fail := func(err error) error {
		for outstanding > 0 {
			comps := e.array.Wait(1, sc.comps[:0])
			if len(comps) == 0 {
				break // device closed; nothing further will arrive
			}
			outstanding -= len(comps)
		}
		e.groups[0].wait()
		e.groups[1].wait()
		for i := tail; i < len(queue); i++ {
			e.mm.Release(queue[i].seg)
		}
		return err
	}

	submit := func() error {
		if next >= len(plans) {
			return nil
		}
		s := e.mm.Acquire()
		if s == nil {
			return nil // both buffers busy; the loop resubmits later
		}
		p := plans[next]
		next++
		queue = append(queue, inflight{
			seg: s, plan: p, left: len(p.runs),
			attempts: attemptArena[arenaUsed : arenaUsed+len(p.runs)],
		})
		arenaUsed += len(p.runs)
		qi := len(queue) - 1
		fl := &queue[qi]
		if e.opts.SyncIO {
			ws := time.Now()
			defer func() {
				d := time.Since(ws)
				statEach(batch, func(st *Stats) { st.IOWait += d })
			}()
			for _, r := range p.runs {
				if err := e.readSyncRetry(batch, r, s); err != nil {
					return err
				}
			}
			fl.left = 0
			return nil
		}
		if cap(sc.reqVals) < len(p.runs) {
			sc.reqVals = make([]storage.Request, len(p.runs))
			sc.reqPtrs = make([]*storage.Request, len(p.runs))
		}
		reqs := sc.reqPtrs[:len(p.runs)]
		for i, r := range p.runs {
			sc.reqVals[i] = storage.Request{
				Offset: r.fileOff,
				Buf:    s.Buf[r.bufOff : r.bufOff+r.n],
				Tag:    int64(qi)<<32 | int64(i),
			}
			reqs[i] = &sc.reqVals[i]
		}
		if err := e.array.Submit(reqs); err != nil {
			return err
		}
		outstanding += len(reqs)
		return nil
	}

	// handle consumes one completion, retrying failed and short reads in
	// place (the re-submitted request keeps its tag, so it still counts
	// toward the same segment's outstanding runs).
	handle := func(c storage.Completion) error {
		outstanding--
		qi, ri := int(c.Tag>>32), int(c.Tag&0xffffffff)
		fl := &queue[qi]
		r := fl.plan.runs[ri]
		err := c.Err
		if err == nil && int64(c.N) < r.n {
			err = fmt.Errorf("core: short read: %d of %d bytes at offset %d", c.N, r.n, r.fileOff)
		}
		if err == nil {
			fl.left--
			return nil
		}
		statEach(batch, func(st *Stats) { st.IOFailures++ })
		if fl.attempts[ri] >= e.opts.MaxRetries {
			return fmt.Errorf("core: tile read failed after %d attempts: %w", fl.attempts[ri]+1, err)
		}
		fl.attempts[ri]++
		statEach(batch, func(st *Stats) { st.Retries++ })
		if err := e.backoff(batch, fl.attempts[ri]); err != nil {
			return err
		}
		req := &storage.Request{
			Offset: r.fileOff,
			Buf:    fl.seg.Buf[r.bufOff : r.bufOff+r.n],
			Tag:    c.Tag,
		}
		if err := e.array.Submit([]*storage.Request{req}); err != nil {
			return err
		}
		outstanding++
		return nil
	}

	// settle retires the oldest held segment once its last chunk is
	// processed, and hands the freed buffer to the next load.
	settle := func() error {
		if err := e.groups[tail&1].wait(); err != nil {
			return err
		}
		begin := time.Now()
		e.retire(batch, queue[tail].seg)
		tail++
		err := submit()
		settling += time.Since(begin)
		return err
	}

	// Prime the double buffer: two loads in flight.
	for i := 0; i < 2; i++ {
		if err := submit(); err != nil {
			return fail(err)
		}
	}

	comps := sc.comps
	for head := 0; head < len(queue); head++ {
		fl := &queue[head]
		grp := &e.groups[head&1]
		var prev *workGroup // the segment computing while this one is prepared
		if tail < head {
			prev = &e.groups[tail&1]
		}
		ws := time.Now()
		for fl.left > 0 {
			if pollBatch(batch) == 0 {
				d := time.Since(ws)
				statEach(batch, func(st *Stats) { st.IOWait += d })
				return fail(errBatchDone)
			}
			comps = e.array.Wait(1, comps[:0])
			if len(comps) == 0 {
				d := time.Since(ws)
				statEach(batch, func(st *Stats) { st.IOWait += d })
				return fail(fmt.Errorf("core: storage closed during run"))
			}
			for ci, c := range comps {
				if err := handle(c); err != nil {
					// The rest of this batch was already received off the
					// completion stream; count it before draining.
					outstanding -= len(comps) - ci - 1
					d := time.Since(ws)
					statEach(batch, func(st *Stats) { st.IOWait += d })
					sc.comps = comps
					return fail(err)
				}
			}
		}
		d := time.Since(ws)
		statEach(batch, func(st *Stats) { st.IOWait += d })
		sc.comps = comps

		// If the previous segment drained while this one loaded, the
		// device has nothing outstanding: give it the next load first.
		if prev != nil {
			select {
			case <-prev.done:
				prev.active = false
				if err := settle(); err != nil {
					return fail(err)
				}
			default:
			}
		}

		// Verify the segment's tiles against their recorded checksums
		// before any worker sees the data.
		if err := e.verifySegment(batch, fl.plan, fl.seg); err != nil {
			return fail(err)
		}

		// Register the loaded tiles.
		if cap(sc.refs) < len(fl.plan.tiles) {
			sc.refs = make([]mem.TileRef, 0, len(fl.plan.tiles))
		}
		refs := sc.refs[:0]
		for _, pt := range fl.plan.tiles {
			refs = append(refs, mem.TileRef{
				DiskIdx: pt.diskIdx, Row: pt.row, Col: pt.col,
				Data: fl.seg.Buf[pt.bufOff : pt.bufOff+pt.n],
			})
		}
		fl.seg.SetTiles(refs)

		// Shared-read request attribution: the plan's AIO batch is
		// charged fractionally to the runs it served.
		planMask := uint64(0)
		for _, pt := range fl.plan.tiles {
			planMask |= pt.mask
		}
		interested := 0
		for j, r := range batch {
			if planMask&(1<<uint(j)) != 0 && !r.finished {
				interested++
			}
		}
		if interested > 0 {
			frac := float64(len(fl.plan.runs)) / float64(interested)
			for j, r := range batch {
				if planMask&(1<<uint(j)) != 0 && !r.finished {
					r.reqFrac += frac
				}
			}
		}

		// Queue this segment's chunks behind the previous segment's, then
		// wait for the previous segment — unless a full work queue already
		// made dispatchTile do so — and retire it, which starts the load
		// after this one. The last segment has no successor to hide behind.
		grp.begin()
		cs, before := time.Now(), settling
		var err error
		for ti, ref := range refs {
			if err = e.dispatchTile(batch, fl.plan.tiles[ti].mask, ref, fl.plan.tiles[ti].n, grp, prev, settle); err != nil {
				break
			}
		}
		grp.release()
		for err == nil && (tail < head || tail == head && head+1 == len(queue)) {
			err = settle()
		}
		ce := time.Since(cs) - (settling - before)
		statEach(batch, func(st *Stats) { st.Compute += ce })
		if err != nil {
			return fail(err)
		}
	}
	return nil
}

// readSyncRetry performs one synchronous run read with the same
// retry/backoff policy the async path uses, polling the batch's contexts
// between attempts.
func (e *Engine) readSyncRetry(batch []*runState, r run, s *mem.Segment) error {
	for attempt := 0; ; attempt++ {
		if pollBatch(batch) == 0 {
			return errBatchDone
		}
		err := e.array.ReadSync(r.fileOff, s.Buf[r.bufOff:r.bufOff+r.n])
		if err == nil {
			return nil
		}
		statEach(batch, func(st *Stats) { st.IOFailures++ })
		if attempt >= e.opts.MaxRetries {
			return fmt.Errorf("core: tile read failed after %d attempts: %w", attempt+1, err)
		}
		statEach(batch, func(st *Stats) { st.Retries++ })
		if err := e.backoff(batch, attempt+1); err != nil {
			return err
		}
	}
}

// backoff pauses before the attempt'th retry (1-based): retryBackoff
// doubled per attempt, capped at retryBackoffMax.
//
// With a single live run the sleep is a timer select against that run's
// ctx, so a canceled lone run never blocks a retry out — an unconditional
// time.Sleep here would stall the whole completion loop for up to
// retryBackoffMax per retry after the client is gone. With several live
// runs one client's cancellation must not abort the shared retry, so the
// sweep sleeps the (capped, ≤retryBackoffMax) delay and picks
// cancellations up at the next poll point.
func (e *Engine) backoff(batch []*runState, attempt int) error {
	var sole *runState
	alive := 0
	for _, r := range batch {
		if !r.finished {
			alive++
			sole = r
		}
	}
	if alive == 0 {
		return errBatchDone
	}
	d, limit := e.opts.retryBackoff, e.opts.retryBackoffMax
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	if alive > 1 {
		time.Sleep(d)
		if pollBatch(batch) == 0 {
			return errBatchDone
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-sole.ctx.Done():
		sole.finished = true
		sole.err = fmt.Errorf("core: run canceled during retry backoff: %w", sole.ctx.Err())
		return errBatchDone
	}
}

// retire moves a processed segment toward the cache pool according to the
// configured policy. Under proactive caching the keep predicate is the
// union of NeedTileNextIter across the batch's live runs, so a tile stays
// pooled as long as any co-scheduled query predicts a use for it.
func (e *Engine) retire(batch []*runState, s *mem.Segment) {
	switch e.opts.Cache {
	case CacheNone:
		e.mm.Release(s)
	case CacheLRU:
		// Retire skips tiles the pool already holds (a rewind can
		// re-stream pooled tiles), so only the uncached tiles need room.
		// Sizing by the whole segment would evict cached tiles to make
		// space nothing will use.
		var need int64
		for _, t := range s.Tiles() {
			if e.mm.CachedData(t.DiskIdx) == nil {
				need += int64(len(t.Data))
			}
		}
		e.mm.EvictOldest(need)
		e.mm.Retire(s, nil)
	default: // CacheProactive
		keep := func(ref mem.TileRef) bool { return e.neededNext(batch, ref.Row, ref.Col) }
		if !e.mm.WouldFit(segBytes(s)) {
			// Cache analysis happens when the pool is full (Figure 8,
			// time Ti): evict tiles no live algorithm will need again.
			e.mm.Evict(keep)
		}
		e.mm.Retire(s, keep)
	}
}

func segBytes(s *mem.Segment) int64 {
	var n int64
	for _, t := range s.Tiles() {
		n += int64(len(t.Data))
	}
	return n
}
