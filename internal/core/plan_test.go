package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// planEngine builds an engine whose graph has known tile sizes so the
// segment planner can be checked precisely.
func planEngine(t *testing.T) *Engine {
	t.Helper()
	el := kron(t, 10, 8, 51)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestPlanSegmentsCoversAllTiles(t *testing.T) {
	e := planEngine(t)
	var toFetch []int
	for i := 0; i < e.g.Layout.NumTiles(); i++ {
		if e.g.TupleCount(i) > 0 {
			toFetch = append(toFetch, i)
		}
	}
	plans := e.planSegments(toFetch, nil)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	seen := map[int]bool{}
	for _, p := range plans {
		var used int64
		for _, pt := range p.tiles {
			if seen[pt.diskIdx] {
				t.Fatalf("tile %d planned twice", pt.diskIdx)
			}
			seen[pt.diskIdx] = true
			used += pt.n
		}
		if used > e.opts.SegmentSize {
			t.Fatalf("plan uses %d bytes, segment is %d", used, e.opts.SegmentSize)
		}
		// Runs must cover exactly the tiles' bytes.
		var runBytes int64
		for _, r := range p.runs {
			runBytes += r.n
		}
		if runBytes != used {
			t.Fatalf("runs cover %d bytes, tiles need %d", runBytes, used)
		}
	}
	if len(seen) != len(toFetch) {
		t.Fatalf("planned %d tiles of %d", len(seen), len(toFetch))
	}
}

func TestPlanSegmentsMergesContiguousRuns(t *testing.T) {
	e := planEngine(t)
	// All tiles in disk order are contiguous in the file, so each plan
	// should need exactly one run.
	var toFetch []int
	for i := 0; i < e.g.Layout.NumTiles(); i++ {
		if e.g.TupleCount(i) > 0 {
			toFetch = append(toFetch, i)
		}
	}
	// Only contiguous when no empty tiles sit between; verify at least
	// that runs never exceed tiles and that adjacent tiles share runs.
	plans := e.planSegments(toFetch, nil)
	for _, p := range plans {
		if len(p.runs) > len(p.tiles) {
			t.Fatalf("%d runs for %d tiles", len(p.runs), len(p.tiles))
		}
	}
}

func TestPlanSegmentsGapsSplitRuns(t *testing.T) {
	e := planEngine(t)
	// Fetch every other non-empty tile: runs must not span the gaps.
	var toFetch []int
	for i := 0; i < e.g.Layout.NumTiles(); i += 2 {
		if e.g.TupleCount(i) > 0 {
			toFetch = append(toFetch, i)
		}
	}
	plans := e.planSegments(toFetch, nil)
	for _, p := range plans {
		for _, r := range p.runs {
			// Each run must map exactly onto whole planned tiles.
			var covered int64
			for _, pt := range p.tiles {
				off, n := e.g.TileByteRange(pt.diskIdx)
				if off >= r.fileOff && off+n <= r.fileOff+r.n {
					covered += n
				}
			}
			if covered != r.n {
				t.Fatalf("run [%d,%d) not an exact tile cover (%d of %d bytes)",
					r.fileOff, r.fileOff+r.n, covered, r.n)
			}
		}
	}
}

func TestPlanSegmentsEmptyInput(t *testing.T) {
	e := planEngine(t)
	if plans := e.planSegments(nil, nil); len(plans) != 0 {
		t.Fatalf("empty fetch produced %d plans", len(plans))
	}
}

func TestEngineIOWaitAccounted(t *testing.T) {
	el := kron(t, 10, 8, 52)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.Cache = CacheNone
	opts.Bandwidth = 8 << 20 // slow disks: IO wait must be visible
	opts.Disks = 1
	st := runAlg(t, g, opts, algo.NewPageRank(2))
	if st.IOWait <= 0 {
		t.Fatalf("IOWait not accounted: %+v", st)
	}
	if st.Compute <= 0 {
		t.Fatalf("Compute not accounted: %+v", st)
	}
}

func TestEngineSCCRun(t *testing.T) {
	// SCC through the disk engine on a directed graph.
	el := kron(t, 9, 4, 53)
	el.Directed = true
	g, err := convertDirected(t, el)
	if err != nil {
		t.Fatal(err)
	}
	s := algo.NewSCC()
	st := runAlg(t, g, smallOpts(), s)
	if st.Iterations < 2 {
		t.Fatalf("SCC converged in %d iterations", st.Iterations)
	}
	// Verify against reference.
	want := refSCCLabels(el)
	for v, l := range s.Labels() {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
}
func convertDirected(t *testing.T, el *graph.EdgeList) (*tile.Graph, error) {
	t.Helper()
	g, err := tile.Convert(el, t.TempDir(), "d", tile.ConvertOptions{
		TileBits: 5, GroupQ: 2, Degrees: true,
	})
	if err == nil {
		t.Cleanup(func() { g.Close() })
	}
	return g, err
}

func refSCCLabels(el *graph.EdgeList) []uint32 {
	return graph.RefSCC(el)
}

func TestEngineTrace(t *testing.T) {
	el := kron(t, 9, 4, 54)
	g := convert(t, el, 5, 2)
	var buf bytes.Buffer
	opts := smallOpts()
	opts.Trace = &buf
	runAlg(t, g, opts, algo.NewBFS(0))
	out := buf.String()
	// Trace lines are structured key=value events now.
	for _, want := range []string{
		"event=iteration", "algo=bfs", "iter=0",
		"read_bytes=", "iowait=", "compute=", "pool_used=", "pool_cap=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 2 {
		t.Fatalf("only %d trace lines", lines)
	}
}

// Property: the engine produces reference-identical BFS results under any
// combination of policies, buffer geometry and storage shape.
func TestQuickEngineOptionMatrix(t *testing.T) {
	el := kron(t, 9, 8, 55)
	g := convert(t, el, 5, 2)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	f := func(rawPolicy, rawDisks uint8, selective, syncIO bool, rawSeg uint16, rawMem uint16) bool {
		opts := DefaultOptions()
		opts.Cache = CachePolicy(int(rawPolicy) % 3)
		opts.Disks = int(rawDisks)%8 + 1
		opts.Selective = selective
		opts.SyncIO = syncIO
		opts.Threads = 3
		opts.SegmentSize = int64(rawSeg)%(64<<10) + 8<<10
		opts.MemoryBytes = 2*opts.SegmentSize + int64(rawMem)*64
		e, err := NewEngine(g, opts)
		if err != nil {
			return false
		}
		defer e.Close()
		b := algo.NewBFS(0)
		if _, err := e.Run(context.Background(), b); err != nil {
			return false
		}
		for v, d := range b.Depths() {
			if d != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
