package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
)

// msbfsRoots spreads n roots deterministically over the vertex space.
func msbfsRoots(n int, nv uint32) []uint32 {
	roots := make([]uint32, n)
	for i := range roots {
		roots[i] = (uint32(i) * 2654435761) % nv
		// Keep roots distinct (slot i falls back to vertex i on collision).
		for j := 0; j < i; j++ {
			if roots[j] == roots[i] {
				roots[i] = uint32(i) % nv
			}
		}
	}
	return roots
}

// occupy makes s busy, so a personalized root arriving now has company to
// wait for and parks in a coalescing window instead of running solo: a
// gated BFS is admitted and held at its first iteration boundary until the
// returned release is called (cleanup calls it too). release waits for the
// held run to finish; windows that fired meanwhile join its sweep.
func occupy(t *testing.T, s *Scheduler) (release func()) {
	t.Helper()
	g := newGated(algo.NewBFS(0))
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), g)
		done <- err
	}()
	<-g.entered
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(g.release)
			if err := <-done; err != nil {
				t.Errorf("occupying run: %v", err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

// waitParked blocks until the open coalescing window holds n riders.
func waitParked(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.pmu.Lock()
		parked := 0
		if s.curBatch != nil {
			parked = len(s.curBatch.ctxs)
		}
		s.pmu.Unlock()
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked riders (have %d)", n, parked)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMSBFSMatchesSequentialBFS pins the batched kernel to the solo one:
// a 64-root multi-source BFS must produce, for every root, exactly the
// depth vector 64 sequential single-root BFS runs produce — across every
// tuple codec.
func TestMSBFSMatchesSequentialBFS(t *testing.T) {
	el := kron(t, 10, 8, 11)
	for _, codec := range []string{"snb", "raw", "v3"} {
		t.Run(codec, func(t *testing.T) {
			g := convertCodec(t, el, 6, 4, codec)
			roots := msbfsRoots(64, g.Meta.NumVertices)

			ms := algo.NewMSBFS(roots)
			runAlg(t, g, smallOpts(), ms)

			for slot, root := range roots {
				solo := algo.NewBFS(root)
				runAlg(t, g, smallOpts(), solo)
				got, want := ms.Depth(slot), solo.Depths()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("codec %s root %d (slot %d): depth[%d] = %d, sequential %d",
							codec, root, slot, v, got[v], want[v])
					}
				}
			}
		})
	}
}

// TestMSBFSMatchesSequentialBFSAfterMutations repeats the bit-identity
// pin on a graph mutated through the WAL-backed delta layer, so the
// batched kernel and the solo kernel are known to see the same merged
// tile stream.
func TestMSBFSMatchesSequentialBFSAfterMutations(t *testing.T) {
	el := kron(t, 10, 8, 13)
	g := convert(t, el, 6, 4)
	ds, err := delta.Open(g, g.BasePath(), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	nv := g.Meta.NumVertices
	var ops []delta.Op
	for i := 0; i < len(el.Edges) && len(ops) < 20; i += 131 {
		e := el.Edges[i]
		if e.Src != e.Dst {
			ops = append(ops, delta.Op{Del: true, Src: e.Src, Dst: e.Dst})
		}
	}
	for x := uint32(3); len(ops) < 40; x += 7919 {
		ops = append(ops, delta.Op{Src: x % nv, Dst: (x*31 + 5) % nv})
	}
	if _, err := ds.Apply(ops); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetDeltaStore(ds)

	roots := msbfsRoots(64, nv)
	ms := algo.NewMSBFS(roots)
	if st, err := e.Run(context.Background(), ms); err != nil {
		t.Fatal(err)
	} else if st.DeltaTiles == 0 {
		t.Fatalf("mutated msbfs run merged no delta tiles: %+v", st)
	}
	for slot, root := range roots {
		solo := algo.NewBFS(root)
		if _, err := e.Run(context.Background(), solo); err != nil {
			t.Fatal(err)
		}
		got, want := ms.Depth(slot), solo.Depths()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("mutated root %d (slot %d): depth[%d] = %d, sequential %d",
					root, slot, v, got[v], want[v])
			}
		}
	}
}

// TestRunPersonalBFSCoalesces submits concurrent single-root queries
// to a busy engine within one window and checks each rider gets exactly
// its solo BFS depths, that the roots shared one run, and that I/O
// attribution is split across the riders.
func TestRunPersonalBFSCoalesces(t *testing.T) {
	el := kron(t, 10, 8, 17)
	g := convert(t, el, 6, 4)
	csr := graph.NewCSR(el, false)

	opts := smallOpts()
	opts.BatchWindow = 200 * time.Millisecond // wide enough to swallow goroutine start skew
	_, s := newSched(t, g, opts)
	release := occupy(t, s)

	roots := []uint32{0, 7, 99, 512, 1000}
	type out struct {
		depths []int32
		st     *Stats
		err    error
	}
	outs := make([]out, len(roots))
	var wg sync.WaitGroup
	for i, r := range roots {
		wg.Add(1)
		go func(i int, r uint32) {
			defer wg.Done()
			d, st, err := s.RunPersonalBFS(context.Background(), r)
			outs[i] = out{d, st, err}
		}(i, r)
	}
	waitParked(t, s, len(roots))
	release()
	wg.Wait()

	for i, r := range roots {
		o := outs[i]
		if o.err != nil {
			t.Fatalf("root %d: %v", r, o.err)
		}
		if o.st.BatchedRoots != len(roots) {
			t.Fatalf("root %d: BatchedRoots = %d, want %d (one fused run)",
				r, o.st.BatchedRoots, len(roots))
		}
		want := graph.RefBFS(csr, graph.VertexID(r))
		for v := range want {
			if o.depths[v] != want[v] {
				t.Fatalf("root %d: depth[%d] = %d, want %d", r, v, o.depths[v], want[v])
			}
		}
		if o.st.BytesRead <= 0 {
			t.Fatalf("root %d: no fractional I/O attributed: %+v", r, o.st)
		}
	}
	// All riders see the same divided view of one run's bytes.
	for i := 1; i < len(outs); i++ {
		if outs[i].st.BytesRead != outs[0].st.BytesRead {
			t.Fatalf("riders disagree on attributed bytes: %d vs %d",
				outs[i].st.BytesRead, outs[0].st.BytesRead)
		}
	}
}

// TestRunPersonalBFSSoloWindow pins the BatchWindow=0 path: an immediate
// solo BFS with BatchedRoots = 1.
func TestRunPersonalBFSSoloWindow(t *testing.T) {
	el := kron(t, 10, 8, 19)
	g := convert(t, el, 6, 4)
	_, s := newSched(t, g, smallOpts()) // DefaultOptions has no window

	d, st, err := s.RunPersonalBFS(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchedRoots != 1 {
		t.Fatalf("BatchedRoots = %d, want 1", st.BatchedRoots)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 3)
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d[v], want[v])
		}
	}
}

// TestRunPersonalBFSDuplicateRootsShareSlot: two riders on the same root
// behind a busy engine coalesce into a single-root run and both get the
// same depth vector.
func TestRunPersonalBFSDuplicateRootsShareSlot(t *testing.T) {
	el := kron(t, 10, 8, 23)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.BatchWindow = 200 * time.Millisecond
	_, s := newSched(t, g, opts)
	release := occupy(t, s)

	var wg sync.WaitGroup
	var d1, d2 []int32
	var st1, st2 *Stats
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); d1, st1, err1 = s.RunPersonalBFS(context.Background(), 42) }()
	go func() { defer wg.Done(); d2, st2, err2 = s.RunPersonalBFS(context.Background(), 42) }()
	waitParked(t, s, 2)
	release()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	if st1.BatchedRoots != 1 || st2.BatchedRoots != 1 {
		t.Fatalf("BatchedRoots = %d/%d, want 1/1 (duplicates share the slot)",
			st1.BatchedRoots, st2.BatchedRoots)
	}
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("riders disagree at depth[%d]: %d vs %d", v, d1[v], d2[v])
		}
	}
}

// TestRunPersonalBFSBadRoot: an out-of-range root is rejected up front
// as a BadRequestError and never reaches (or poisons) a batch.
func TestRunPersonalBFSBadRoot(t *testing.T) {
	el := kron(t, 10, 8, 29)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.BatchWindow = 50 * time.Millisecond
	_, s := newSched(t, g, opts)

	_, _, err := s.RunPersonalBFS(context.Background(), g.Meta.NumVertices+5)
	var bre *BadRequestError
	if !errors.As(err, &bre) {
		t.Fatalf("err = %v, want BadRequestError", err)
	}
	// A good root right after still works.
	if _, st, err := s.RunPersonalBFS(context.Background(), 1); err != nil || st.BatchedRoots < 1 {
		t.Fatalf("good root after bad: st=%+v err=%v", st, err)
	}
}

// TestRunPersonalBFSCloseDuringWindow: riders parked in an open window
// get ErrSchedulerClosed promptly when the scheduler shuts down.
func TestRunPersonalBFSCloseDuringWindow(t *testing.T) {
	el := kron(t, 10, 8, 31)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, func() Options {
		o := smallOpts()
		o.BatchWindow = 10 * time.Second // far beyond the test
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := NewScheduler(e)
	release := occupy(t, s)

	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.RunPersonalBFS(context.Background(), 5)
		errCh <- err
	}()
	waitParked(t, s, 1) // the rider has opened the window
	release()           // the engine drains; the window stays open
	s.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("rider err = %v, want ErrSchedulerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rider still parked after Close")
	}
	// Submissions after Close are rejected immediately.
	if _, _, err := s.RunPersonalBFS(context.Background(), 5); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("post-Close err = %v, want ErrSchedulerClosed", err)
	}
}

// TestRunPersonalBFSRiderCancel: one rider canceling while batched
// leaves with a wrapped context error; the batch still answers the
// patient rider correctly.
func TestRunPersonalBFSRiderCancel(t *testing.T) {
	el := kron(t, 10, 8, 37)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.BatchWindow = 300 * time.Millisecond
	_, s := newSched(t, g, opts)
	release := occupy(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	impatient := make(chan error, 1)
	go func() {
		_, _, err := s.RunPersonalBFS(ctx, 9)
		impatient <- err
	}()
	patient := make(chan []int32, 1)
	go func() {
		d, _, err := s.RunPersonalBFS(context.Background(), 11)
		if err != nil {
			t.Errorf("patient rider: %v", err)
		}
		patient <- d
	}()
	waitParked(t, s, 2) // both riders parked in the window
	release()
	cancel()
	if err := <-impatient; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient rider err = %v, want context.Canceled", err)
	}
	d := <-patient
	want := graph.RefBFS(graph.NewCSR(el, false), 11)
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("patient depth[%d] = %d, want %d", v, d[v], want[v])
		}
	}
}

// TestRunPersonalBFSSixtyFourRootCap: the 65th distinct root within a
// window opens a second batch rather than overflowing the 64 interest
// bits; everyone still gets correct depths.
func TestRunPersonalBFSSixtyFourRootCap(t *testing.T) {
	if testing.Short() {
		t.Skip("65 concurrent riders")
	}
	el := kron(t, 10, 8, 41)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.BatchWindow = 300 * time.Millisecond
	opts.MaxQueuedRuns = 16
	_, s := newSched(t, g, opts)
	release := occupy(t, s)

	const n = 65
	nv := g.Meta.NumVertices
	sts := make([]*Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			root := (uint32(i) * 613) % nv
			_, st, err := s.RunPersonalBFS(context.Background(), root)
			if err != nil {
				t.Errorf("root %d: %v", root, err)
				return
			}
			sts[i] = st
		}(i)
	}
	// The first 64 distinct roots fill one batch, which fires at once and
	// is admitted behind the held run; the 65th opens a second window.
	waitActive(t, s, 2)
	waitParked(t, s, 1)
	release()
	wg.Wait()
	maxBatched := 0
	for _, st := range sts {
		if st != nil && st.BatchedRoots > maxBatched {
			maxBatched = st.BatchedRoots
		}
		if st != nil && st.BatchedRoots > 64 {
			t.Fatalf("batch overflowed the bitmask: %d roots", st.BatchedRoots)
		}
	}
	if maxBatched < 2 {
		t.Fatalf("no coalescing observed across %d riders", n)
	}
}

// TestPersonalRunHookFiresOncePerRun: the observer sees the coalesced
// run once with undivided stats, not once per rider.
func TestPersonalRunHookFiresOncePerRun(t *testing.T) {
	el := kron(t, 10, 8, 43)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, func() Options {
		o := smallOpts()
		o.BatchWindow = 200 * time.Millisecond
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := NewScheduler(e)
	defer s.Close()
	release := occupy(t, s)

	var mu sync.Mutex
	var hooks []*Stats
	s.PersonalRunHook = func(st *Stats, err error) {
		mu.Lock()
		hooks = append(hooks, st)
		mu.Unlock()
	}

	roots := []uint32{1, 2, 3}
	var wg sync.WaitGroup
	var riderBytes int64
	for _, r := range roots {
		wg.Add(1)
		go func(r uint32) {
			defer wg.Done()
			_, st, err := s.RunPersonalBFS(context.Background(), r)
			if err != nil {
				t.Errorf("root %d: %v", r, err)
				return
			}
			mu.Lock()
			riderBytes = st.BytesRead
			mu.Unlock()
		}(r)
	}
	waitParked(t, s, len(roots))
	release()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(hooks) != 1 {
		t.Fatalf("hook fired %d times, want once per underlying run", len(hooks))
	}
	if hooks[0].BatchedRoots != len(roots) {
		t.Fatalf("hook BatchedRoots = %d, want %d", hooks[0].BatchedRoots, len(roots))
	}
	// The hook sees undivided bytes; each rider sees ~1/len(roots) of them.
	if riderBytes >= hooks[0].BytesRead {
		t.Fatalf("rider bytes %d not a fraction of run bytes %d", riderBytes, hooks[0].BytesRead)
	}
}

// TestRunPersonalBFSIdleSkipsWindow: a root that finds the engine idle
// has no company to wait for, so it runs a solo BFS at once however wide
// the window is.
func TestRunPersonalBFSIdleSkipsWindow(t *testing.T) {
	el := kron(t, 10, 8, 47)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.BatchWindow = 10 * time.Second // far beyond the test
	_, s := newSched(t, g, opts)

	begin := time.Now()
	d, st, err := s.RunPersonalBFS(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("idle root took %v: it waited in the window", took)
	}
	if st.BatchedRoots != 1 {
		t.Fatalf("BatchedRoots = %d, want 1", st.BatchedRoots)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 3)
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d[v], want[v])
		}
	}
}

// TestPersonalRunHookSeesRunKind: the hook sees a plain bfs run for a root
// on an idle engine and for a one-root window behind a busy one, and a
// single msbfs run for two distinct roots behind a busy engine.
func TestPersonalRunHookSeesRunKind(t *testing.T) {
	el := kron(t, 10, 8, 53)
	g := convert(t, el, 6, 4)
	csr := graph.NewCSR(el, false)
	opts := smallOpts()
	opts.BatchWindow = 200 * time.Millisecond
	_, s := newSched(t, g, opts)

	var mu sync.Mutex
	var hooks []Stats
	s.PersonalRunHook = func(st *Stats, err error) {
		if err != nil {
			t.Errorf("hooked run: %v", err)
			return
		}
		mu.Lock()
		hooks = append(hooks, *st)
		mu.Unlock()
	}
	// ask submits roots concurrently, releases the engine once they are all
	// parked (when busy), and checks every answer against the reference.
	ask := func(release func(), roots ...uint32) {
		t.Helper()
		var wg sync.WaitGroup
		for _, r := range roots {
			wg.Add(1)
			go func(r uint32) {
				defer wg.Done()
				d, _, err := s.RunPersonalBFS(context.Background(), r)
				if err != nil {
					t.Errorf("root %d: %v", r, err)
					return
				}
				want := graph.RefBFS(csr, graph.VertexID(r))
				for v := range want {
					if d[v] != want[v] {
						t.Errorf("root %d: depth[%d] = %d, want %d", r, v, d[v], want[v])
						return
					}
				}
			}(r)
		}
		if release != nil {
			waitParked(t, s, len(roots))
			release()
		}
		wg.Wait()
	}

	ask(nil, 4)              // idle engine: solo at once
	ask(occupy(t, s), 6)     // busy engine, one root in the window
	ask(occupy(t, s), 8, 10) // busy engine, two roots fuse

	mu.Lock()
	defer mu.Unlock()
	want := []struct {
		alg   string
		roots int
	}{{"bfs", 1}, {"bfs", 1}, {"msbfs", 2}}
	if len(hooks) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(hooks), len(want))
	}
	for i, w := range want {
		if hooks[i].Algorithm != w.alg || hooks[i].BatchedRoots != w.roots {
			t.Fatalf("run %d: hook saw %s with %d roots, want %s with %d",
				i, hooks[i].Algorithm, hooks[i].BatchedRoots, w.alg, w.roots)
		}
	}
}
