package delta

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// convert builds a small converted graph in a temp dir.
func convert(t *testing.T, el *graph.EdgeList, name string) (*tile.Graph, string) {
	t.Helper()
	dir := t.TempDir()
	if !el.Directed {
		el.Canonicalize()
	}
	g, err := tile.Convert(el, dir, name, tile.ConvertOptions{
		TileBits: 2, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, tile.BasePath(dir, name)
}

func undirected(t *testing.T) *graph.EdgeList {
	return &graph.EdgeList{
		NumVertices: 12,
		Directed:    false,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 5}, {Src: 1, Dst: 6}, {Src: 2, Dst: 3},
			{Src: 4, Dst: 9}, {Src: 5, Dst: 10}, {Src: 7, Dst: 8}, {Src: 3, Dst: 11},
			{Src: 6, Dst: 6},
		},
	}
}

// effectiveEdges decodes base ∪ delta into a multiset of stored tuples.
func effectiveEdges(t *testing.T, g *tile.Graph, v *View) map[uint64]int {
	t.Helper()
	out := make(map[uint64]int)
	var buf []byte
	for i := 0; i < g.Layout.NumTiles(); i++ {
		data, err := g.ReadTile(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = data
		c := g.Layout.CoordAt(i)
		rb, _ := g.Layout.VertexRange(c.Row)
		cb, _ := g.Layout.VertexRange(c.Col)
		eff := data
		if td := v.Tile(i); td != nil {
			var err error
			eff, err = td.Merge(data, g.Meta.TupleCodec(), g.Layout.TileBits, rb, cb)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tile.DecodeTuples(eff, g.Meta.TupleCodec(), rb, cb, func(s, d uint32) {
			out[key(s, d)]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// storedSet converts a (canonicalized) edge list into the stored-tuple
// multiset a fresh conversion would produce.
func storedSet(el *graph.EdgeList, half bool) map[uint64]int {
	out := make(map[uint64]int)
	for _, e := range el.Edges {
		s, d := e.Src, e.Dst
		if half && s > d {
			s, d = d, s
		}
		out[key(s, d)]++
	}
	return out
}

func sameEdges(t *testing.T, got, want map[uint64]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("tuple (%d,%d): got %d, want %d", uint32(k>>32), uint32(k), got[k], n)
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Fatalf("extra tuple (%d,%d) ×%d", uint32(k>>32), uint32(k), n)
		}
	}
}

func TestApplyMergeMatchesFreshConversion(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "mut")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ops := []Op{
		{Src: 9, Dst: 2},             // insert, new tile territory
		{Src: 1, Dst: 0},             // redundant insert (either orientation)
		{Del: true, Src: 10, Dst: 5}, // delete an existing edge, mirrored orientation
		{Del: true, Src: 7, Dst: 8},  // delete
		{Src: 11, Dst: 11},           // self loop insert
	}
	changed, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 4 { // the redundant insert changes nothing
		t.Fatalf("changed = %d, want 4", changed)
	}

	want := &graph.EdgeList{NumVertices: 12, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 5}, {Src: 1, Dst: 6}, {Src: 2, Dst: 3},
		{Src: 4, Dst: 9}, {Src: 3, Dst: 11}, {Src: 6, Dst: 6},
		{Src: 2, Dst: 9}, {Src: 11, Dst: 11},
	}}
	sameEdges(t, effectiveEdges(t, g, s.View()), storedSet(want, true))
}

func TestDegreeOverlayMatchesRecount(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "deg")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply([]Op{
		{Src: 9, Dst: 2}, {Del: true, Src: 0, Dst: 1}, {Src: 11, Dst: 0},
	}); err != nil {
		t.Fatal(err)
	}
	baseDeg, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	merged := s.View().Degrees(baseDeg)

	// Recount from the effective tuples with the fsck convention.
	want := make([]uint32, g.Meta.NumVertices)
	for k, n := range effectiveEdges(t, g, s.View()) {
		src, dst := uint32(k>>32), uint32(k)
		want[src] += uint32(n)
		if g.Layout.Half && src != dst {
			want[dst] += uint32(n)
		}
	}
	for v := uint32(0); v < g.Meta.NumVertices; v++ {
		if got := merged.Degree(v); got != want[v] {
			t.Fatalf("vertex %d: overlay degree %d, recount %d", v, got, want[v])
		}
	}
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "crash")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Src: 9, Dst: 2}, {Del: true, Src: 7, Dst: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Src: 4, Dst: 4}}); err != nil {
		t.Fatal(err)
	}
	want := effectiveEdges(t, g, s.View())
	// "Crash": drop the store without Flush/Close. The WAL alone must
	// reconstruct the view.
	s2, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.ReplayRecords != 2 || st.ReplayOps != 3 {
		t.Fatalf("replay stats %+v, want 2 records / 3 ops", st)
	}
	if st.Seq != 2 {
		t.Fatalf("recovered seq %d, want 2", st.Seq)
	}
	sameEdges(t, effectiveEdges(t, g, s2.View()), want)
}

func TestFlushSnapshotRotatesAndTruncates(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "flush")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Src: 9, Dst: 2}, {Del: true, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := effectiveEdges(t, g, s.View())
	// More mutations after the flush land in the post-rotation WAL.
	if _, err := s.Apply([]Op{{Src: 10, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	want2 := effectiveEdges(t, g, s.View())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	gens, err := listSnapshots(faultfs.OS, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 2 {
		t.Fatalf("snapshot generations = %v, want [2]", gens)
	}

	// Reopen: snapshot alone must cover everything (WAL truncated).
	s2, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.ReplayOps != 0 {
		t.Fatalf("expected no WAL replay after flush, got %+v", st)
	}
	sameEdges(t, effectiveEdges(t, g, s2.View()), want2)
	_ = want
}

func TestCrashBetweenFlushAndTruncationIsIdempotent(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "idem")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Src: 9, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	// Save the WAL segments, flush (which truncates them), then restore
	// — simulating a crash after the snapshot rename but before
	// truncation. Replay must skip the already-covered records.
	wdir := walDir(base)
	saved := map[string][]byte{}
	ents, err := os.ReadDir(wdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(wdir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		saved[e.Name()] = data
	}
	want := effectiveEdges(t, g, s.View())
	if err := s.Close(); err != nil { // Close flushes + truncates
		t.Fatal(err)
	}
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(wdir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.ReplayOps != 0 {
		t.Fatalf("stale WAL records were reapplied: %+v", st)
	}
	sameEdges(t, effectiveEdges(t, g, s2.View()), want)
}

func TestBadOpRejected(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "bad")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply([]Op{{Src: 0, Dst: 12}}); err == nil {
		t.Fatal("expected BadOpError for out-of-range vertex")
	} else if _, ok := err.(*BadOpError); !ok {
		t.Fatalf("got %T (%v), want *BadOpError", err, err)
	}
	if st := s.Stats(); st.WALAppends != 0 {
		t.Fatalf("rejected batch reached the WAL: %+v", st)
	}
}

func TestFsckCleanAndCorrupt(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "fsck")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Src: 9, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Src: 10, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	findings, _ := Fsck(base)
	if len(findings) != 0 {
		t.Fatalf("clean store has findings: %v", findings)
	}
	// Corrupt the snapshot.
	path := snapshotPath(base, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	findings, _ = Fsck(base)
	if len(findings) == 0 {
		t.Fatal("corrupt snapshot not reported")
	}
	if _, err := Open(g, base, Options{}); err == nil {
		t.Fatal("opening a store with a corrupt newest snapshot should fail")
	}
}

func TestDirectedStore(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 8, Directed: true,
		Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 4}},
	}
	dir := t.TempDir()
	g, err := tile.Convert(el, dir, "dir", tile.ConvertOptions{
		TileBits: 2, GroupQ: 2, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	base := tile.BasePath(dir, "dir")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply([]Op{{Src: 4, Dst: 3}, {Del: true, Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	want := &graph.EdgeList{NumVertices: 8, Directed: true, Edges: []graph.Edge{
		{Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 4}, {Src: 4, Dst: 3},
	}}
	sameEdges(t, effectiveEdges(t, g, s.View()), storedSet(want, false))
}

// TestOpenOverCorruptBaseTile pins what a snapshot load does when a delta
// tile's base fails its checksum, so its masked positions cannot be
// recomputed: the store opens, reads and writes of that tile fail instead
// of resurrecting its deleted tuples, and the other tiles keep working.
func TestOpenOverCorruptBaseTile(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "corrupt")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Del: true, Src: 0, Dst: 1}, {Del: true, Src: 7, Dst: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	di := g.Layout.DiskIndex(0, 0) // holds (0, 1)
	off, n := g.TileByteRange(di)
	if n == 0 {
		t.Fatal("tile (0, 0) is empty")
	}
	data, err := os.ReadFile(g.TilesPath())
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x01
	if err := os.WriteFile(g.TilesPath(), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(g, base, Options{})
	if err != nil {
		t.Fatalf("one corrupt base tile failed the whole store: %v", err)
	}
	defer s.Close()
	v := s.View()
	if _, err := v.Tile(di).Masked(); err == nil {
		t.Fatal("the corrupt tile's delta carries no error")
	}
	if _, err := v.Tile(di).Merge(nil, g.Meta.TupleCodec(), g.Layout.TileBits, 0, 0); err == nil {
		t.Fatal("Merge of the corrupt tile succeeded")
	}
	if _, err := s.Apply([]Op{{Src: 0, Dst: 2}}); err == nil {
		t.Fatal("a write to the corrupt tile succeeded")
	}
	other := g.Layout.DiskIndex(1, 2) // holds (7, 8)
	if _, err := v.Tile(other).Masked(); err != nil {
		t.Fatalf("a sound tile's delta carries %v", err)
	}
	if _, err := s.Apply([]Op{{Src: 7, Dst: 9}}); err != nil {
		t.Fatalf("a write to a sound tile failed: %v", err)
	}
}
