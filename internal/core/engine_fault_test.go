package core

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/storage"
)

func faultOpts(cfg storage.FaultConfig, retries int) Options {
	o := smallOpts()
	o.Fault = &cfg
	o.MaxRetries = retries
	o.retryBackoff = 50 * time.Microsecond
	o.retryBackoffMax = time.Millisecond
	return o
}

// checkNoLeakedSegments asserts both streaming buffers are free.
func checkNoLeakedSegments(t *testing.T, e *Engine) {
	t.Helper()
	a, b := e.mm.Acquire(), e.mm.Acquire()
	if a == nil || b == nil {
		t.Fatal("engine leaked a streaming segment")
	}
	e.mm.Release(a)
	e.mm.Release(b)
}

// Acceptance: at a 10% injected read-error rate, BFS completes correctly
// via retries and the stats report the recovery.
func TestEngineFaultInjectionBFSRetries(t *testing.T) {
	el := kron(t, 10, 8, 21)
	g := convert(t, el, 6, 4)
	opts := faultOpts(storage.FaultConfig{Seed: 1, ErrorRate: 0.1}, 8)
	b := algo.NewBFS(0)
	st := runAlg(t, g, opts, b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.Faults.Errors == 0 {
		t.Fatal("no faults injected at a 10% error rate")
	}
	if st.Retries == 0 || st.IOFailures == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
	if st.Retries < st.IOFailures {
		t.Fatalf("every observed failure should have been retried: %d failures, %d retries",
			st.IOFailures, st.Retries)
	}
}

// Short reads and latency spikes must also be survivable, for both
// PageRank and the synchronous-I/O ablation path.
func TestEngineFaultShortAndSlowReads(t *testing.T) {
	el := kron(t, 12, 8, 22)
	g := convert(t, el, 6, 4)
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(5))

	for _, syncIO := range []bool{false, true} {
		opts := faultOpts(storage.FaultConfig{
			Seed: 2, ErrorRate: 0.05, ShortRate: 0.3,
			SlowRate: 0.05, SlowDelay: 200 * time.Microsecond,
		}, 10)
		opts.SyncIO = syncIO
		// Stream everything every iteration so plenty of requests pass
		// through the fault device.
		opts.Cache = CacheNone
		opts.MemoryBytes = 128 << 10
		p := algo.NewPageRank(5)
		st := runAlg(t, g, opts, p)
		for v, r := range p.Ranks() {
			if diff := r - want[v]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("syncIO=%v: rank[%d] = %v, want %v", syncIO, v, r, want[v])
			}
		}
		if st.Faults.Shorts == 0 {
			t.Fatalf("syncIO=%v: no short reads injected: %+v", syncIO, st.Faults)
		}
		if st.Retries == 0 {
			t.Fatalf("syncIO=%v: no retries recorded", syncIO)
		}
	}
}

// Acceptance: with retries exhausted, Run returns an error, and a
// subsequent fault-free Run on the same engine succeeds with no leaked
// segments.
func TestEngineFaultRetriesExhaustedThenRecovers(t *testing.T) {
	el := kron(t, 10, 4, 23)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, faultOpts(storage.FaultConfig{Seed: 3, ErrorRate: 1}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Two failed runs in a row: the engine must stay usable between them.
	for round := 0; round < 2; round++ {
		if _, err := e.Run(context.Background(), algo.NewBFS(0)); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("round %d: Run error = %v, want wrapped ErrInjected", round, err)
		}
		checkNoLeakedSegments(t, e)
	}

	fd, ok := e.array.(*storage.FaultDevice)
	if !ok {
		t.Fatalf("engine array is %T, want *storage.FaultDevice", e.array)
	}
	if err := fd.SetConfig(storage.FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	b := algo.NewBFS(0)
	st, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatalf("fault-free Run after failed Run: %v", err)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.Faults.Errors != 0 {
		t.Fatalf("fault-free run still injected faults: %+v", st.Faults)
	}
	checkNoLeakedSegments(t, e)
}

// Regression for the segment leak: after a forced I/O error (truncated
// tiles file), the same engine must run again once the file is restored.
// Before the leak-proof teardown, the second Run deadlocked in Acquire.
func TestEngineRunTwiceAfterForcedIOError(t *testing.T) {
	el := kron(t, 9, 4, 24)
	g := convert(t, el, 5, 2)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tilesPath := g.BasePath() + ".tiles"
	saved, err := os.ReadFile(tilesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tilesPath, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err == nil {
		t.Fatal("engine ignored read failure")
	}
	checkNoLeakedSegments(t, e)

	// Restore the bytes in place (same inode; the engine's open handle
	// sees the restored content) and run again.
	if err := os.WriteFile(tilesPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	b := algo.NewBFS(0)
	if _, err := e.Run(context.Background(), b); err != nil {
		t.Fatalf("second Run after restored file: %v", err)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	checkNoLeakedSegments(t, e)
}

// With retries disabled every injected failure is fatal, but the engine
// must still tear down cleanly and stay reusable.
func TestEngineFaultNoRetries(t *testing.T) {
	el := kron(t, 10, 4, 25)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, faultOpts(storage.FaultConfig{Seed: 4, ErrorRate: 0.3}, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err == nil {
		t.Fatal("Run succeeded despite unretried faults")
	}
	checkNoLeakedSegments(t, e)
	if fd, ok := e.array.(*storage.FaultDevice); ok {
		if err := fd.SetConfig(storage.FaultConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err != nil {
		t.Fatalf("engine not reusable after unretried fault: %v", err)
	}
}

// The LRU retire path (mem.EvictOldest) must evict exactly enough bytes,
// including the boundary case of a segment larger than the whole pool.
func TestLRURetireBoundary(t *testing.T) {
	m, err := mem.NewManager(1000, 400) // segments 400, pool 200
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{mm: m, opts: Options{Cache: CacheLRU}}

	fill := func(diskIdx, size int) {
		s := m.Acquire()
		if s == nil {
			t.Fatal("no free segment")
		}
		data := s.Buf[:size]
		for i := range data {
			data[i] = byte(diskIdx)
		}
		s.SetTiles([]mem.TileRef{{DiskIdx: diskIdx, Data: data}})
		m.Retire(s, nil)
	}
	fill(1, 80)
	fill(2, 80)
	fill(3, 30) // pool now 190/200

	// Need 100: evicting tiles 1 and 2 (160 bytes) is exactly enough;
	// tile 3 must survive.
	if freed, evicted := m.EvictOldest(100); freed != 160 || evicted != 2 {
		t.Fatalf("EvictOldest(100) = (%d, %d), want (160, 2)", freed, evicted)
	}
	if m.CachedData(1) != nil || m.CachedData(2) != nil {
		t.Fatal("oldest tiles not evicted")
	}
	if m.CachedData(3) == nil {
		t.Fatal("EvictOldest evicted more than needed")
	}
	if used := m.PoolUsed(); used != 30 || used+100 > m.PoolCap() {
		t.Fatalf("PoolUsed = %d after making room for 100", used)
	}

	// Boundary: an incoming segment bigger than the whole pool evicts
	// everything, and the subsequent Retire drops the oversized tile.
	if freed, evicted := m.EvictOldest(300); freed != 30 || evicted != 1 {
		t.Fatalf("EvictOldest(300) = (%d, %d), want (30, 1)", freed, evicted)
	}
	if m.PoolUsed() != 0 {
		t.Fatalf("PoolUsed = %d, want 0 after oversized EvictOldest", m.PoolUsed())
	}
	before := m.Stats().DroppedTiles
	s := m.Acquire()
	s.SetTiles([]mem.TileRef{{DiskIdx: 9, Data: s.Buf[:300]}}) // > pool cap 200
	e.retire(nil, s)
	if got := m.Stats().DroppedTiles - before; got != 1 {
		t.Fatalf("DroppedTiles delta = %d, want 1", got)
	}
	checkNoLeakedSegments(t, e)
}

// The LRU retire path must size its eviction by the tiles the pool does
// NOT already hold: Retire skips already-cached tiles (a rewind re-streams
// pooled tiles), so sizing by the whole segment evicts live cache entries
// to make room nothing will fill.
func TestLRURetireSizesByUncachedTilesOnly(t *testing.T) {
	m, err := mem.NewManager(1000, 400) // segments 400, pool 200
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{mm: m, opts: Options{Cache: CacheLRU}}

	fill := func(diskIdx, size int) {
		s := m.Acquire()
		data := s.Buf[:size]
		for i := range data {
			data[i] = byte(diskIdx)
		}
		s.SetTiles([]mem.TileRef{{DiskIdx: diskIdx, Data: data}})
		m.Retire(s, nil)
	}
	fill(1, 80)
	fill(2, 60)
	fill(3, 40) // pool now 180/200

	// A segment carrying tile 3 (cached, 40 bytes) and a new tile 4
	// (20 bytes): only 20 uncached bytes are needed and 20 are free, so
	// nothing may be evicted. Sizing by the whole segment (60 bytes)
	// would wrongly evict tile 1.
	before := m.Stats().EvictedTiles
	s := m.Acquire()
	d3 := s.Buf[:40]
	d4 := s.Buf[40:60]
	for i := range d4 {
		d4[i] = 4
	}
	s.SetTiles([]mem.TileRef{
		{DiskIdx: 3, Data: d3},
		{DiskIdx: 4, Data: d4},
	})
	e.retire(nil, s)

	if got := m.Stats().EvictedTiles - before; got != 0 {
		t.Fatalf("EvictedTiles delta = %d, want 0 (only 20 uncached bytes needed)", got)
	}
	for _, di := range []int{1, 2, 3, 4} {
		if m.CachedData(di) == nil {
			t.Fatalf("tile %d missing from pool after retire", di)
		}
	}
	if m.PoolUsed() != 200 {
		t.Fatalf("PoolUsed = %d, want 200", m.PoolUsed())
	}
	checkNoLeakedSegments(t, e)
}

// soloBatch wraps ctx in a single-run batch for driving sweep internals
// directly in tests.
func soloBatch(ctx context.Context) []*runState {
	return []*runState{{ctx: ctx, stats: &Stats{}, done: make(chan struct{})}}
}

// The backoff schedule must honor the cap.
func TestBackoffCapped(t *testing.T) {
	batch := soloBatch(context.Background())
	e := &Engine{opts: Options{retryBackoff: time.Millisecond, retryBackoffMax: 4 * time.Millisecond}}
	begin := time.Now()
	if err := e.backoff(batch, 10); err != nil { // would be 512ms uncapped
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 100*time.Millisecond {
		t.Fatalf("backoff(10) slept %v, want ~4ms cap", elapsed)
	}
}

// A canceled context interrupts a retry backoff immediately instead of
// blocking the completion loop out the full schedule.
func TestBackoffCanceledContext(t *testing.T) {
	e := &Engine{opts: Options{retryBackoff: time.Hour, retryBackoffMax: time.Hour}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := soloBatch(ctx)
	begin := time.Now()
	err := e.backoff(batch, 1)
	if !errors.Is(err, errBatchDone) {
		t.Fatalf("backoff under canceled ctx = %v, want errBatchDone", err)
	}
	if !errors.Is(batch[0].err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", batch[0].err)
	}
	if elapsed := time.Since(begin); elapsed > 100*time.Millisecond {
		t.Fatalf("canceled backoff took %v, want immediate return", elapsed)
	}
}

// TestFaultForNextSegmentWhileComputing arms the fault device from inside
// the kernel, after the first two segments were read clean: the reads that
// fail (retries exhausted), or come back corrupt twice (a persistent
// checksum mismatch), belong to a later segment and arrive while slow
// workers are still on the segments queued before it. Teardown must drain
// both work groups before it releases the buffers, and the engine must run
// clean once the device does.
func TestFaultForNextSegmentWhileComputing(t *testing.T) {
	el := kron(t, 10, 8, 26)
	g := convert(t, el, 5, 2)
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(3))
	for name, armed := range map[string]storage.FaultConfig{
		"read errors":       {Seed: 5, ErrorRate: 1},
		"checksum mismatch": {Seed: 6, CorruptRate: 1, CorruptBytes: 2},
	} {
		opts := faultOpts(storage.FaultConfig{}, 1)
		opts.MemoryBytes = g.DataBytes() / 2
		opts.SegmentSize = 1 // one tile per segment
		e, err := NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		fd := e.array.(*storage.FaultDevice)
		k := &slowKernel{Algorithm: algo.NewPageRank(3), delay: 200 * time.Microsecond}
		k.hook = func(call int64) {
			if call == 1 {
				if err := fd.SetConfig(armed); err != nil {
					t.Error(err)
				}
			}
		}
		st, err := e.Run(context.Background(), k)
		var ie *IntegrityError
		switch {
		case name == "read errors" && !errors.Is(err, storage.ErrInjected):
			t.Fatalf("%s: Run error = %v, want wrapped ErrInjected", name, err)
		case name == "checksum mismatch" && (!errors.As(err, &ie) || st == nil || st.IntegrityErrors != 1):
			t.Fatalf("%s: Run = (%+v, %v), want partial stats and *IntegrityError", name, st, err)
		}
		requireIdle(t, e)

		if err := fd.SetConfig(storage.FaultConfig{}); err != nil {
			t.Fatal(err)
		}
		p := algo.NewPageRank(3)
		if _, err := e.Run(context.Background(), p); err != nil {
			t.Fatalf("%s: fault-free rerun: %v", name, err)
		}
		requireRanks(t, name, p.Ranks(), want)
		requireIdle(t, e)
		e.Close()
	}
}
