package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// gated wraps an algorithm so its first AfterIteration blocks until
// released, holding the sweep at a known point while a test arranges
// co-scheduled runs. entered is signaled when the block is reached.
type gated struct {
	algo.Algorithm
	entered chan struct{}
	release chan struct{}
}

func newGated(a algo.Algorithm) *gated {
	return &gated{Algorithm: a, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gated) AfterIteration(i int) bool {
	done := g.Algorithm.AfterIteration(i)
	if i == 0 {
		g.entered <- struct{}{}
		<-g.release
	}
	return done
}

func newSched(t *testing.T, g *tile.Graph, opts Options) (*Engine, *Scheduler) {
	t.Helper()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	s := NewScheduler(e)
	t.Cleanup(s.Close)
	return e, s
}

// waitActive blocks until n runs are admitted (batch + pending).
func waitActive(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		if active >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d active runs (have %d)", n, active)
		}
		time.Sleep(time.Millisecond)
	}
}

// counts strips st of everything that depends on timing — durations,
// which worker took which chunk, latency buckets, instantaneous gauges —
// and leaves every figure that two executions of one run on equal engines
// must agree on, so a DeepEqual of two of them compares every count field
// Stats has, including ones added later.
func counts(st *Stats) Stats {
	c := *st
	c.Elapsed, c.IOWait, c.Compute, c.Imbalance = 0, 0, 0, 0
	c.Storage.BusyTime = 0
	c.WorkerBusy, c.Totals.WorkerBusy = nil, nil
	c.WorkerChunks = []int64{sum(st.WorkerChunks)}
	c.Totals.WorkerChunks = []int64{sum(st.Totals.WorkerChunks)}
	for _, io := range []*storage.ExtStats{&c.IO, &c.Totals.IO} {
		io.QueueDepth, io.Inflight = 0, 0
		io.Latency = storage.LatencyStats{Count: io.Latency.Count}
	}
	return c
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// A scheduler driving a single run must reproduce Engine.Run exactly —
// same results, same counts in every field of Stats — on either backend,
// with and without injected faults: the two entry points are one loop.
// (The fault counts compare exactly because the generator is consumed in
// submission order and every failed request is resubmitted once, so the
// number of failures does not depend on which request drew which value.)
func TestSchedulerSoloMatchesEngineRun(t *testing.T) {
	el := kron(t, 10, 8, 5)
	g := convert(t, el, 6, 4)
	for _, alg := range []string{"bfs", "pagerank"} {
		for _, backend := range []string{"sim", "file"} {
			for _, faulty := range []bool{false, true} {
				name := alg + "/" + backend
				opts := smallOpts()
				if faulty {
					name += "/faults"
					opts = faultOpts(storage.FaultConfig{Seed: 11, ErrorRate: 0.1, ShortRate: 0.1}, 8)
				}
				opts.Backend = backend
				opts.MemoryBytes = g.DataBytes() / 2 // every iteration reads
				opts.SegmentSize = opts.MemoryBytes / 8
				t.Run(name, func(t *testing.T) {
					mk := func() algo.Algorithm {
						if alg == "bfs" {
							return algo.NewBFS(0)
						}
						return algo.NewPageRank(5)
					}
					ref, a := mk(), mk()
					refSt := runAlg(t, g, opts, ref)
					_, s := newSched(t, g, opts)
					st, err := s.Run(context.Background(), a)
					if err != nil {
						t.Fatal(err)
					}
					if alg == "bfs" {
						requireDepths(t, name, a.(*algo.BFS).Depths(), ref.(*algo.BFS).Depths())
					} else {
						requireRanks(t, name, a.(*algo.PageRank).Ranks(), ref.(*algo.PageRank).Ranks())
					}
					if got, want := counts(st), counts(refSt); !reflect.DeepEqual(got, want) {
						t.Fatalf("stats differ\nvia scheduler: %+v\nvia Engine.Run: %+v", got, want)
					}
					for what, st := range map[string]*Stats{"Scheduler.Run": st, "Engine.Run": refSt} {
						if st.BytesRead == 0 || st.IORequests == 0 || st.TilesFetched == 0 || st.TilesVerified != st.TilesFetched {
							t.Fatalf("%s: read nothing or verified something else: %+v", what, st)
						}
						if st.SharedRuns != 1 || st.QueueWait != 0 {
							t.Fatalf("%s: SharedRuns = %d, QueueWait = %v for a run alone on its sweep", what, st.SharedRuns, st.QueueWait)
						}
						if len(st.WorkerBusy) != opts.Threads || sum(st.WorkerChunks) != st.Chunks || st.Imbalance < 1 {
							t.Fatalf("%s: worker figures not filled: busy %v, chunks %v of %d, imbalance %v",
								what, st.WorkerBusy, st.WorkerChunks, st.Chunks, st.Imbalance)
						}
						if st.Faults != st.IO.Faults || st.Faults != st.Totals.IO.Faults {
							t.Fatalf("%s: a fresh engine's first run must see the device's fault totals: %+v / %+v / %+v",
								what, st.Faults, st.IO.Faults, st.Totals.IO.Faults)
						}
						if failed := st.Faults.Errors + st.Faults.Shorts; failed != st.IOFailures || st.Retries != st.IOFailures || (failed > 0) != faulty {
							t.Fatalf("%s: %d injected failures, %d observed, %d retried (faulty=%v)",
								what, failed, st.IOFailures, st.Retries, faulty)
						}
					}
				})
			}
		}
	}
}

// published reads one counter series back from a registry.
func published(reg *metrics.Registry, name string, labels ...metrics.Label) int64 {
	return reg.Counter(name, "", append([]metrics.Label{metrics.L("graph", "g")}, labels...)...).Value()
}

// requirePublishedTotals asserts that what PublishStats put on the
// lifetime series is what the engine has counted since it was made.
func requirePublishedTotals(t *testing.T, reg *metrics.Registry, e *Engine) Counters {
	t.Helper()
	tot := e.Counters()
	for name, want := range map[string]int64{
		"gstore_engine_faults_injected_errors_total":      tot.IO.Faults.Errors,
		"gstore_engine_faults_injected_shorts_total":      tot.IO.Faults.Shorts,
		"gstore_engine_faults_injected_corruptions_total": tot.IO.Faults.Corruptions,
		"gstore_engine_unattributed_bytes_total":          tot.UnattributedBytes,
	} {
		if got := published(reg, name); got != want {
			t.Fatalf("%s = %d published, engine total %d", name, got, want)
		}
	}
	// The device's own series, which eight overlapping per-run windows
	// added up would overstate several times over.
	bl := metrics.L("backend", tot.IO.Backend)
	for name, want := range map[string]int64{
		"gstore_storage_spans_total":              tot.IO.Spans,
		"gstore_storage_coalesced_requests_total": tot.IO.Coalesced,
		"gstore_storage_readahead_bytes_total":    tot.IO.ReadaheadBytes,
	} {
		if got := published(reg, name, bl); got != want {
			t.Fatalf("%s = %d published, device total %d", name, got, want)
		}
	}
	h := reg.Histogram("gstore_storage_read_seconds", "", storage.ReadLatencySeconds, metrics.L("graph", "g"), bl)
	if lat := tot.IO.Latency; h.Count() != lat.Count || math.Abs(h.Sum()-lat.SumSeconds()) > 1e-9 {
		t.Fatalf("read latency histogram holds %d reads, %v s; the device counted %d, %v s", h.Count(), h.Sum(), lat.Count, lat.SumSeconds())
	}
	for w := range tot.WorkerBusy {
		wl := metrics.L("worker", strconv.Itoa(w))
		if got, want := published(reg, "gstore_engine_worker_busy_microseconds_total", wl), tot.WorkerBusy[w].Microseconds(); got != want {
			t.Fatalf("worker %d busy = %dµs published, engine total %dµs", w, got, want)
		}
		if got, want := published(reg, "gstore_engine_worker_chunks_total", wl), tot.WorkerChunks[w]; got != want {
			t.Fatalf("worker %d chunks = %d published, engine total %d", w, got, want)
		}
	}
	return tot
}

// Co-scheduled runs see overlapping windows of the engine's lifetime
// counters, so adding their per-run figures up would count faults, worker
// time and unattributed bytes several times over (and before the run loops
// were merged the scheduler path reported none of them at all). Whatever
// order eight concurrent riders publish in, the lifetime series must end
// up at exactly the engine's totals — and again after a rider canceled
// mid-sweep leaves bytes no run can be charged for.
func TestConcurrentMixPublishesEngineTotals(t *testing.T) {
	el := kron(t, 11, 8, 3)
	g := convert(t, el, 6, 4)
	opts := faultOpts(storage.FaultConfig{Seed: 7, ErrorRate: 0.05, ShortRate: 0.05}, 8)
	opts.MaxConcurrentRuns = 8
	opts.MemoryBytes = g.DataBytes() / 2
	opts.SegmentSize = opts.MemoryBytes / 16
	e, s := newSched(t, g, opts)
	reg := metrics.NewRegistry()

	// ride co-schedules riders behind a gated heavy run, so that all of
	// them share sweeps, and publishes every stats that comes back from
	// the goroutine that ran it.
	ride := func(heavy *gated, riders ...func() (algo.Algorithm, context.Context)) {
		t.Helper()
		var wg sync.WaitGroup
		run := func(ctx context.Context, a algo.Algorithm) {
			defer wg.Done()
			st, err := s.Run(ctx, a)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("%s: %v", a.Name(), err)
			}
			PublishStats(reg, "g", st)
		}
		wg.Add(1)
		go run(context.Background(), heavy)
		<-heavy.entered
		for _, mk := range riders {
			a, ctx := mk()
			wg.Add(1)
			go run(ctx, a)
		}
		waitActive(t, s, 1+len(riders))
		close(heavy.release)
		wg.Wait()
	}
	plain := func(a algo.Algorithm) func() (algo.Algorithm, context.Context) {
		return func() (algo.Algorithm, context.Context) { return a, context.Background() }
	}

	ride(newGated(algo.NewPageRank(8)),
		plain(algo.NewBFS(0)), plain(algo.NewBFS(1)), plain(algo.NewBFS(2)),
		plain(algo.NewWCC()), plain(algo.NewWCC()),
		plain(algo.NewPageRank(4)), plain(algo.NewPageRank(6)))
	tot := requirePublishedTotals(t, reg, e)
	if tot.IO.Faults.Errors == 0 || tot.IO.Faults.Shorts == 0 || sum(tot.WorkerChunks) == 0 || tot.IO.Spans == 0 || tot.IO.Latency.Count == 0 {
		t.Fatalf("the mix injected no faults or did no work: %+v", tot)
	}

	// A PageRank rider that cancels itself from its first edge batch is
	// dropped at the sweep's next poll. The run beside it skips the last
	// stored tile, which therefore arrives, many segments later, with
	// nobody left to charge.
	last := g.Layout.NumTiles() - 1
	for g.TupleCount(last) == 0 {
		last--
	}
	c := g.Layout.CoordAt(last)
	_, lastBytes := g.TileByteRange(last)
	ride(newGated(&skipTile{Algorithm: algo.NewPageRank(4), row: c.Row, col: c.Col}),
		func() (algo.Algorithm, context.Context) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return &slowKernel{Algorithm: algo.NewPageRank(4), hook: func(int64) { cancel() }}, ctx
		})
	if tot = requirePublishedTotals(t, reg, e); tot.UnattributedBytes != lastBytes {
		t.Fatalf("the canceled rider left %d unattributed bytes, want the skipped tile's %d", tot.UnattributedBytes, lastBytes)
	}
}

// Persistent corruption fails a run with *IntegrityError and the partial
// stats, sealed like any other run's, whichever entry point it came in
// by: there is one place that fans a sweep failure out and one that seals.
func TestIntegrityErrorSealsPartialStatsOnBothEntryPoints(t *testing.T) {
	el := kron(t, 10, 8, 6)
	g := convert(t, el, 6, 4)
	opts := faultOpts(storage.FaultConfig{Seed: 6, CorruptRate: 1, CorruptBytes: 2}, 1)
	results := map[string]*Stats{}
	for _, entry := range []string{"Engine.Run", "Scheduler.Run"} {
		e, s := newSched(t, g, opts)
		run := e.Run
		if entry == "Scheduler.Run" {
			run = s.Run
		}
		st, err := run(context.Background(), algo.NewPageRank(3))
		var ie *IntegrityError
		if !errors.As(err, &ie) || st == nil {
			t.Fatalf("%s = (%+v, %v), want partial stats and *IntegrityError", entry, st, err)
		}
		if st.IntegrityErrors != 1 || st.ChecksumMismatches != 1 || st.TilesVerified == 0 ||
			st.Faults.Corruptions < 2 || st.Elapsed <= 0 || len(st.WorkerBusy) != opts.Threads || st.SharedRuns != 1 {
			t.Fatalf("%s: partial stats not sealed: %+v", entry, st)
		}
		requireIdle(t, e)
		results[entry] = st
	}
	if got, want := counts(results["Scheduler.Run"]), counts(results["Engine.Run"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("partial stats differ\nvia scheduler: %+v\nvia Engine.Run: %+v", got, want)
	}
}

// Eight mixed runs co-scheduled on one sweep must produce the same
// results as solo execution: BFS depths and WCC labels bit-identical,
// PageRank ranks within the chunked-reduction tolerance. This is the
// join-barrier correctness test; CI runs it under -race.
func TestSchedulerMixedConcurrentMatchesSolo(t *testing.T) {
	el := kron(t, 11, 8, 3)
	g := convert(t, el, 6, 4)

	// Solo references, each on a fresh engine.
	refBFS := make([]*algo.BFS, 3)
	for i := range refBFS {
		refBFS[i] = algo.NewBFS(uint32(i))
		runAlg(t, g, smallOpts(), refBFS[i])
	}
	refWCC := algo.NewWCC()
	runAlg(t, g, smallOpts(), refWCC)
	refPR10 := algo.NewPageRank(10)
	prSoloSt := runAlg(t, g, smallOpts(), refPR10)
	refPR20 := algo.NewPageRank(20)
	runAlg(t, g, smallOpts(), refPR20)

	opts := smallOpts()
	opts.MaxConcurrentRuns = 8
	_, s := newSched(t, g, opts)

	// The heavy run goes first and holds the sweep at iteration 0 until
	// all seven others are admitted, guaranteeing everyone shares.
	heavy := newGated(algo.NewPageRank(20))
	heavyErr := make(chan error, 1)
	var heavySt *Stats
	go func() {
		st, err := s.Run(context.Background(), heavy)
		heavySt = st
		heavyErr <- err
	}()
	<-heavy.entered

	bfs := make([]*algo.BFS, 3)
	for i := range bfs {
		bfs[i] = algo.NewBFS(uint32(i))
	}
	wcc := [2]*algo.WCC{algo.NewWCC(), algo.NewWCC()}
	pr := [2]*algo.PageRank{algo.NewPageRank(10), algo.NewPageRank(10)}

	var wg sync.WaitGroup
	stats := make([]*Stats, 7)
	errs := make([]error, 7)
	riders := []algo.Algorithm{bfs[0], bfs[1], bfs[2], wcc[0], wcc[1], pr[0], pr[1]}
	for i, a := range riders {
		wg.Add(1)
		go func(i int, a algo.Algorithm) {
			defer wg.Done()
			stats[i], errs[i] = s.Run(context.Background(), a)
		}(i, a)
	}
	waitActive(t, s, 8)
	close(heavy.release)
	wg.Wait()
	if err := <-heavyErr; err != nil {
		t.Fatalf("heavy run: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rider %d: %v", i, err)
		}
	}

	for i := range bfs {
		want, got := refBFS[i].Depths(), bfs[i].Depths()
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("bfs[%d] depth[%d] = %d shared, %d solo", i, v, got[v], want[v])
			}
		}
	}
	for i := range wcc {
		want, got := refWCC.Labels(), wcc[i].Labels()
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("wcc[%d] label[%d] = %d shared, %d solo", i, v, got[v], want[v])
			}
		}
	}
	// Chunked PageRank reduces worker slabs in nondeterministic float
	// order, so shared-vs-solo matches to tolerance, same as the chunked
	// equivalence tests.
	for i := range pr {
		want, got := refPR10.Ranks(), pr[i].Ranks()
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-9 {
				t.Fatalf("pr[%d] rank[%d] = %g shared, %g solo", i, v, got[v], want[v])
			}
		}
	}
	for v, want := range refPR20.Ranks() {
		if got := heavy.Algorithm.(*algo.PageRank).Ranks()[v]; math.Abs(want-got) > 1e-9 {
			t.Fatalf("heavy rank[%d] = %g shared, %g solo", v, got, want)
		}
	}

	// Everyone shared a sweep, and the shared scan attributed each
	// PageRank rider fewer bytes than its solo run paid.
	if heavySt.SharedRuns < 2 {
		t.Fatalf("heavy SharedRuns = %d, want ≥ 2", heavySt.SharedRuns)
	}
	for i, st := range stats {
		if st.SharedRuns < 2 {
			t.Fatalf("rider %d SharedRuns = %d, want ≥ 2", i, st.SharedRuns)
		}
	}
	for i := 5; i < 7; i++ { // the PageRank(10) riders
		if stats[i].BytesRead >= prSoloSt.BytesRead {
			t.Fatalf("shared pagerank BytesRead = %d, want < solo %d",
				stats[i].BytesRead, prSoloSt.BytesRead)
		}
	}
}

// Admission control: with a full batch and a full queue further runs are
// rejected; a queued run whose client disconnects leaves the queue with
// its context error.
func TestSchedulerQueueOverflowAndCancel(t *testing.T) {
	el := kron(t, 10, 8, 7)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 1
	opts.MaxQueuedRuns = 1
	_, s := newSched(t, g, opts)

	blocker := newGated(algo.NewPageRank(5))
	blockErr := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), blocker)
		blockErr <- err
	}()
	<-blocker.entered

	qctx, qcancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Run(qctx, algo.NewWCC())
		queuedErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued run never appeared in the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Run(context.Background(), algo.NewWCC()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow run err = %v, want ErrQueueFull", err)
	}

	qcancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued run err = %v, want context.Canceled", err)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after queued run canceled, want 0", d)
	}

	close(blocker.release)
	if err := <-blockErr; err != nil {
		t.Fatalf("blocking run: %v", err)
	}

	// The slot is free again: a fresh run admits and completes.
	if _, err := s.Run(context.Background(), algo.NewWCC()); err != nil {
		t.Fatalf("run after drain: %v", err)
	}
}

// Runs that leave the queue without admission — canceled, or rejected by
// Close — must still report their queue wait, or the latency histogram
// only ever sees waits that ended in admission (survivorship bias).
func TestSchedulerQueuedExitObservesQueueWait(t *testing.T) {
	el := kron(t, 10, 8, 11)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 1
	opts.MaxQueuedRuns = 2
	_, s := newSched(t, g, opts)

	blocker := newGated(algo.NewPageRank(5))
	blockErr := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), blocker)
		blockErr <- err
	}()
	<-blocker.entered

	type res struct {
		st  *Stats
		err error
	}
	qctx, qcancel := context.WithCancel(context.Background())
	canceled := make(chan res, 1)
	go func() {
		st, err := s.Run(qctx, algo.NewWCC())
		canceled <- res{st, err}
	}()
	rejected := make(chan res, 1)
	go func() {
		st, err := s.Run(context.Background(), algo.NewWCC())
		rejected <- res{st, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued runs never appeared in the queue")
		}
		time.Sleep(time.Millisecond)
	}

	time.Sleep(5 * time.Millisecond) // accrue a measurable wait
	qcancel()
	r := <-canceled
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled queued run err = %v, want context.Canceled", r.err)
	}
	if r.st == nil || r.st.QueueWait <= 0 {
		t.Fatalf("canceled queued run stats = %+v, want non-nil with QueueWait > 0", r.st)
	}

	closed := make(chan struct{})
	go func() {
		s.Close() // rejects the remaining queued run, then drains
		close(closed)
	}()
	r = <-rejected
	if !errors.Is(r.err, ErrSchedulerClosed) {
		t.Fatalf("rejected queued run err = %v, want ErrSchedulerClosed", r.err)
	}
	if r.st == nil || r.st.QueueWait <= 0 {
		t.Fatalf("rejected queued run stats = %+v, want non-nil with QueueWait > 0", r.st)
	}

	close(blocker.release)
	if err := <-blockErr; err != nil {
		t.Fatalf("blocking run: %v", err)
	}
	<-closed
}

// One rider canceling mid-sweep must not disturb its co-scheduled
// neighbor, and a closed scheduler refuses new work.
func TestSchedulerRiderCancelAndClose(t *testing.T) {
	el := kron(t, 10, 8, 9)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.MaxConcurrentRuns = 4
	_, s := newSched(t, g, opts)

	ref := algo.NewPageRank(8)
	runAlg(t, g, smallOpts(), ref)

	heavy := newGated(algo.NewPageRank(8))
	heavyErr := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), heavy)
		heavyErr <- err
	}()
	<-heavy.entered

	vctx, vcancel := context.WithCancel(context.Background())
	victimErr := make(chan error, 1)
	go func() {
		_, err := s.Run(vctx, algo.NewWCC())
		victimErr <- err
	}()
	waitActive(t, s, 2)
	vcancel()
	close(heavy.release)

	if err := <-victimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled rider err = %v, want context.Canceled", err)
	}
	if err := <-heavyErr; err != nil {
		t.Fatalf("surviving rider: %v", err)
	}
	for v, want := range ref.Ranks() {
		if got := heavy.Algorithm.(*algo.PageRank).Ranks()[v]; math.Abs(want-got) > 1e-9 {
			t.Fatalf("survivor rank[%d] = %g, want %g", v, got, want)
		}
	}

	s.Close()
	if _, err := s.Run(context.Background(), algo.NewWCC()); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("run after Close err = %v, want ErrSchedulerClosed", err)
	}
}

// waitFinalized collects garbage until n finalizers have run, failing
// after a few seconds: a kernel whose finalizer never runs is still
// reachable from something its run left behind.
func waitFinalized(t *testing.T, freed *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finished kernels still reachable after their runs returned", n-freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// A run that has returned must not stay reachable from the scheduler —
// not from the admission queue's backing array, the pending list or the
// sweep batch's spare capacity — or every finished query keeps its
// kernel's per-vertex vectors alive until some later run happens to
// overwrite the slot. Each case puts a finalizer on every kernel it
// submits and requires all of them to run once the runs are back:
// concurrent PPRs at MaxConcurrentRuns 8 (16 of them queue), the same
// beside a long run that keeps the sweep loop alive, a queued run
// canceled ahead of another, and a coalesced RunPersonalBFS window.
func TestSchedulerReleasesFinishedRuns(t *testing.T) {
	el := kron(t, 12, 16, 3)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.Threads = 2
	opts.MaxConcurrentRuns = 8
	opts.MaxQueuedRuns = 64

	// submit runs n PPRs at once, each kernel finalized into freed.
	submit := func(t *testing.T, s *Scheduler, n int, freed *atomic.Int64) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			a := algo.NewPPR(uint32(i*97), 3)
			runtime.SetFinalizer(a, func(*algo.PPR) { freed.Add(1) })
			wg.Add(1)
			go func(a algo.Algorithm) {
				defer wg.Done()
				<-start
				if _, err := s.Run(context.Background(), a); err != nil {
					t.Error(err)
				}
			}(a)
		}
		close(start)
		wg.Wait()
	}

	for _, runs := range []int{1, 4, 16} {
		t.Run(strconv.Itoa(runs), func(t *testing.T) {
			_, s := newSched(t, g, opts)
			var freed atomic.Int64
			submit(t, s, runs, &freed)
			waitFinalized(t, &freed, int64(runs))
		})
	}

	t.Run("16-beside-a-live-run", func(t *testing.T) {
		_, s := newSched(t, g, opts)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel) // before s.Close, which waits for the sweep to drain
		longErr := make(chan error, 1)
		go func() {
			_, err := s.Run(ctx, algo.NewPageRank(1<<20))
			longErr <- err
		}()
		waitActive(t, s, 1)
		var freed atomic.Int64
		submit(t, s, 16, &freed)
		waitFinalized(t, &freed, 16)
		cancel()
		if err := <-longErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("long run err = %v, want context.Canceled", err)
		}
	})

	t.Run("queued-then-canceled", func(t *testing.T) {
		o := opts
		o.MaxConcurrentRuns = 1
		_, s := newSched(t, g, o)
		blocker := newGated(algo.NewPageRank(2))
		blockErr := make(chan error, 1)
		go func() {
			_, err := s.Run(context.Background(), blocker)
			blockErr <- err
		}()
		<-blocker.entered

		var freed atomic.Int64
		qctx, qcancel := context.WithCancel(context.Background())
		errs := make(chan error, 2)
		for i, ctx := range []context.Context{qctx, context.Background()} {
			a := algo.NewPPR(5, 3)
			runtime.SetFinalizer(a, func(*algo.PPR) { freed.Add(1) })
			go func(ctx context.Context, a algo.Algorithm) {
				_, err := s.Run(ctx, a)
				errs <- err
			}(ctx, a)
			for s.QueueDepth() < i+1 {
				time.Sleep(time.Millisecond)
			}
		}
		qcancel() // the first queued run leaves the queue ahead of the second
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled queued run err = %v, want context.Canceled", err)
		}
		close(blocker.release)
		if err := <-blockErr; err != nil {
			t.Fatalf("blocking run: %v", err)
		}
		if err := <-errs; err != nil {
			t.Fatalf("second queued run: %v", err)
		}
		waitFinalized(t, &freed, 2)
	})

	t.Run("personal-coalesced", func(t *testing.T) {
		o := opts
		o.BatchWindow = 200 * time.Millisecond
		_, s := newSched(t, g, o)
		release := occupy(t, s)

		// The first root opens the window alone, so it holds slot 0, whose
		// depth vector starts the msbfs kernel's depth matrix: that vector
		// is unreachable only once the kernel is.
		roots := []uint32{0, 7, 99, 512, 1000}
		first := make(chan []int32, 1)
		var wg sync.WaitGroup
		for i, r := range roots {
			wg.Add(1)
			go func(i int, r uint32) {
				defer wg.Done()
				d, st, err := s.RunPersonalBFS(context.Background(), r)
				if err != nil || st.BatchedRoots != len(roots) {
					t.Errorf("root %d: %v (batched roots %v)", r, err, st)
				}
				if i == 0 {
					first <- d
				}
			}(i, r)
			waitParked(t, s, i+1)
		}
		release()
		wg.Wait()

		var freed atomic.Int64
		runtime.SetFinalizer(&(<-first)[0], func(*int32) { freed.Add(1) })
		waitFinalized(t, &freed, 1)
	})
}
