package delta

import (
	"cmp"
	"os"
	"slices"
	"testing"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// writeCase is one cell of the write-path matrix: a tuple codec and a
// storage mode ("half" stores the upper triangle of an undirected graph,
// "full" both orientations, "directed" a directed graph).
type writeCase struct {
	codec, mode string
}

func (wc writeCase) String() string { return wc.codec + "-" + wc.mode }

func writeCases() []writeCase {
	var out []writeCase
	for _, c := range []string{"snb", "raw", "v3"} {
		for _, m := range []string{"half", "full", "directed"} {
			out = append(out, writeCase{c, m})
		}
	}
	return out
}

const modelTileBits = 6 // 16 tiles per side at kron-10

// kron10 converts a seeded kron-10 graph (edge factor 8, duplicate edges
// and self loops kept) for one write case and returns it with its edge
// list.
func kron10(t testing.TB, wc writeCase) (*tile.Graph, string, *graph.EdgeList) {
	t.Helper()
	cfg := gen.Graph500Config(10, 8, 11)
	cfg.Directed = wc.mode == "directed"
	el, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	el.Canonicalize()
	dir := t.TempDir()
	g, err := tile.Convert(el, dir, "k", tile.ConvertOptions{
		TileBits: modelTileBits, GroupQ: 4, Symmetry: wc.mode == "half",
		Codec: wc.codec, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, tile.BasePath(dir, "k"), el
}

// modelBatches draws nBatches seeded batches of batchOps mutations over
// el, shaped to reach every write-path transition: keys repeated inside
// one batch (either kind), deletes of edges the base holds two or more
// times, deletes of other base edges, re-inserts of deleted keys,
// inserts of edges already present, self loops, inserts inside diagonal
// tiles and random inserts. Undirected ops come in either orientation.
func modelBatches(el *graph.EdgeList, tileWidth uint32, seed uint64, nBatches, batchOps int) [][]Op {
	rng := gen.NewRNG(seed)
	n := func(k int) int { return int(rng.Next() % uint64(k)) }
	nv := int(el.NumVertices)
	mult := make(map[graph.Edge]int)
	for _, e := range el.Edges {
		mult[e]++
	}
	var dups []graph.Edge
	for e, c := range mult {
		if c >= 2 {
			dups = append(dups, e)
		}
	}
	slices.SortFunc(dups, func(a, b graph.Edge) int {
		return cmp.Compare(key(a.Src, a.Dst), key(b.Src, b.Dst))
	})
	edgeOp := func(e graph.Edge, del bool) Op { return Op{Del: del, Src: e.Src, Dst: e.Dst} }
	var deleted []Op
	out := make([][]Op, nBatches)
	for b := range out {
		ops := make([]Op, 0, batchOps)
		for len(ops) < batchOps {
			var op Op
			switch r := n(10); {
			case r == 0 && len(ops) > 0:
				op = ops[n(len(ops))]
				op.Del = n(2) == 0
			case r == 1 && len(dups) > 0:
				op = edgeOp(dups[n(len(dups))], true)
			case r == 2:
				op = edgeOp(el.Edges[n(len(el.Edges))], true)
			case r == 3 && len(deleted) > 0:
				op = deleted[n(len(deleted))]
				op.Del = false
			case r == 4:
				op = edgeOp(el.Edges[n(len(el.Edges))], false)
			case r == 5:
				v := uint32(n(nv))
				op = Op{Del: n(4) == 0, Src: v, Dst: v}
			case r == 6:
				src := uint32(n(nv))
				op = Op{Src: src, Dst: src&^(tileWidth-1) | uint32(n(int(tileWidth)))}
			default:
				op = Op{Src: uint32(n(nv)), Dst: uint32(n(nv))}
			}
			if !el.Directed && n(2) == 0 {
				op.Src, op.Dst = op.Dst, op.Src
			}
			if op.Del {
				deleted = append(deleted, op)
			}
			ops = append(ops, op)
		}
		out[b] = ops
	}
	return out
}

// writeModel is the reference semantics of the write path, kept over
// stored tuples without the layout's help: a touched key is present once
// or not at all, an untouched key keeps its base multiplicity, and an op
// touches a key only when it changes that key's count.
type writeModel struct {
	half, full bool
	base       map[uint64]int
	touched    map[uint64]bool
}

func newWriteModel(g *tile.Graph, base map[uint64]int) *writeModel {
	return &writeModel{
		half:    g.Layout.Half,
		full:    !g.Layout.Half && !g.Meta.Directed,
		base:    base,
		touched: make(map[uint64]bool),
	}
}

func (m *writeModel) count(k uint64) int {
	if present, ok := m.touched[k]; ok {
		if present {
			return 1
		}
		return 0
	}
	return m.base[k]
}

// apply applies one batch and returns how many stored tuples changed.
func (m *writeModel) apply(ops []Op) int {
	changed := 0
	for _, op := range ops {
		s, d := op.Src, op.Dst
		keys := []uint64{key(s, d)}
		switch {
		case m.half:
			keys[0] = key(min(s, d), max(s, d))
		case m.full && s != d:
			keys = append(keys, key(d, s))
		}
		after := 1
		if op.Del {
			after = 0
		}
		for _, k := range keys {
			if m.count(k) != after {
				m.touched[k] = !op.Del
				changed++
			}
		}
	}
	return changed
}

func (m *writeModel) edges() map[uint64]int {
	out := make(map[uint64]int)
	for k, c := range m.base {
		if _, ok := m.touched[k]; !ok {
			out[k] = c
		}
	}
	for k, present := range m.touched {
		if present {
			out[k] = 1
		}
	}
	return out
}

func (m *writeModel) insTuples() int64 {
	var n int64
	for _, present := range m.touched {
		if present {
			n++
		}
	}
	return n
}

// checkDegrees compares the view's degree overlay with a recount of the
// effective tuples (the fsck convention: a half layout credits both
// endpoints of a non-loop tuple).
func checkDegrees(t *testing.T, g *tile.Graph, v *View, eff map[uint64]int) {
	t.Helper()
	baseDeg, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, g.Meta.NumVertices)
	for k, c := range eff {
		src, dst := uint32(k>>32), uint32(k)
		want[src] += uint32(c)
		if g.Layout.Half && src != dst {
			want[dst] += uint32(c)
		}
	}
	deg := v.Degrees(baseDeg)
	for vx := range want {
		if got := deg.Degree(uint32(vx)); got != want[vx] {
			t.Fatalf("vertex %d: degree %d, recount %d", vx, got, want[vx])
		}
	}
}

// sameView requires two views to hold the same effective tuples, degrees
// and summary counts.
func sameView(t *testing.T, g *tile.Graph, got, want *View) {
	t.Helper()
	eff := effectiveEdges(t, g, want)
	sameEdges(t, effectiveEdges(t, g, got), eff)
	checkDegrees(t, g, got, eff)
	if got.NumTiles() != want.NumTiles() || got.insTuples != want.insTuples || got.maskedKeys != want.maskedKeys {
		t.Fatalf("view summary tiles/ins/masked %d/%d/%d, want %d/%d/%d",
			got.NumTiles(), got.insTuples, got.maskedKeys, want.NumTiles(), want.insTuples, want.maskedKeys)
	}
	if !slices.Equal(got.TileIndexes(), want.TileIndexes()) {
		t.Fatalf("delta tiles %v, want %v", got.TileIndexes(), want.TileIndexes())
	}
}

// TestWritePathMatchesModel is the differential test of the write path:
// every batch of a seeded op stream over a multigraph base must leave the
// store agreeing with writeModel on the effective tuples, the degrees,
// the changed count and the summary counters, and both recovery paths —
// WAL replay and snapshot load — must rebuild the same view.
func TestWritePathMatchesModel(t *testing.T) {
	for _, wc := range writeCases() {
		t.Run(wc.String(), func(t *testing.T) {
			g, base, el := kron10(t, wc)
			baseTuples := effectiveEdges(t, g, &View{})
			dup := 0
			for _, c := range baseTuples {
				if c >= 2 {
					dup++
				}
			}
			if dup == 0 {
				t.Fatal("base holds no duplicate tuples; the test would not exercise base multiplicity")
			}
			model := newWriteModel(g, baseTuples)
			s, err := Open(g, base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			batches := modelBatches(el, g.Layout.TileWidth(), 5, 20, 96)
			prev, prevEff := s.View(), model.edges()
			for i, ops := range batches {
				if i == 10 {
					// Half the history goes to a snapshot, half stays in the WAL.
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				changed, err := s.Apply(ops)
				if err != nil {
					t.Fatal(err)
				}
				if want := model.apply(ops); changed != want {
					t.Fatalf("batch %d: changed %d, model %d", i, changed, want)
				}
				v := s.View()
				eff := model.edges()
				sameEdges(t, effectiveEdges(t, g, v), eff)
				checkDegrees(t, g, v, eff)
				// Views are immutable: the batch shares the previous view's
				// degree pages and must not have written them.
				checkDegrees(t, g, prev, prevEff)
				prev, prevEff = v, eff
				st := s.Stats()
				if st.InsTuples != model.insTuples() || st.MaskedKeys != int64(len(model.touched)) {
					t.Fatalf("batch %d: stats ins/masked %d/%d, model %d/%d",
						i, st.InsTuples, st.MaskedKeys, model.insTuples(), len(model.touched))
				}
			}

			// Reopen without flushing: the snapshot plus WAL replay.
			replayed, err := Open(g, base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st := replayed.Stats(); st.ReplayRecords != 10 {
				t.Fatalf("replayed %d records, want 10", st.ReplayRecords)
			}
			sameView(t, g, replayed.View(), s.View())

			// Flush and reopen: the snapshot alone.
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			loaded, err := Open(g, base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st := loaded.Stats(); st.ReplayRecords != 0 {
				t.Fatalf("replayed %d records after a flush, want 0", st.ReplayRecords)
			}
			sameView(t, g, loaded.View(), s.View())
		})
	}
}

// pinnedSnapshots are the length and CRC32C digest (of the payload; a
// CRC over the whole file, trailer included, is a constant residue) of
// the snapshot file the seeded op stream of TestSnapshotPinnedBytes
// leaves behind, per write case. The snapshot format is on disk: any
// change to how the delta is held in memory must reproduce these bytes
// exactly. A snapshot holds full vertex IDs, not encoded tuples, so the
// three codecs share one digest per storage mode.
var pinnedSnapshots = map[string]snapshotSum{
	"snb-half": {19644, 0x9dafe26e}, "snb-full": {31134, 0xf08b0485}, "snb-directed": {18831, 0xad5f1f97},
	"raw-half": {19644, 0x9dafe26e}, "raw-full": {31134, 0xf08b0485}, "raw-directed": {18831, 0xad5f1f97},
	"v3-half": {19644, 0x9dafe26e}, "v3-full": {31134, 0xf08b0485}, "v3-directed": {18831, 0xad5f1f97},
}

type snapshotSum struct {
	bytes int
	crc   uint32
}

// TestSnapshotPinnedBytes flushes the model test's op stream on every
// codec and storage mode and compares the snapshot's length and digest
// with the pinned ones.
func TestSnapshotPinnedBytes(t *testing.T) {
	got := make(map[string]snapshotSum)
	for _, wc := range writeCases() {
		t.Run(wc.String(), func(t *testing.T) {
			g, base, el := kron10(t, wc)
			s, err := Open(g, base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, ops := range modelBatches(el, g.Layout.TileWidth(), 5, 20, 96) {
				if _, err := s.Apply(ops); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(snapshotPath(base, 1))
			if err != nil {
				t.Fatal(err)
			}
			sum := snapshotSum{len(data), tile.Checksum(data[:len(data)-4])}
			got[wc.String()] = sum
			if want := pinnedSnapshots[wc.String()]; sum != want {
				t.Errorf("snapshot %d bytes, crc32c %08x; pinned %d bytes, %08x", sum.bytes, sum.crc, want.bytes, want.crc)
			}
		})
	}
	if t.Failed() {
		t.Logf("%#v", got)
	}
}
