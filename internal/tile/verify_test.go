package tile

import (
	"os"
	"testing"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

func TestVerifyCleanGraphs(t *testing.T) {
	cases := []struct {
		name string
		opts ConvertOptions
		cfg  gen.Config
	}{
		{"half-snb", ConvertOptions{TileBits: 6, GroupQ: 4, Symmetry: true, Degrees: true}, gen.Graph500Config(9, 8, 81)},
		{"full-raw", ConvertOptions{TileBits: 6, GroupQ: 4, Codec: "raw", Degrees: true}, gen.Graph500Config(9, 8, 81)},
		{"directed", ConvertOptions{TileBits: 6, GroupQ: 4, Degrees: true}, gen.TwitterLikeConfig(9, 4, 82)},
		{"no-degrees", ConvertOptions{TileBits: 6, GroupQ: 4, Symmetry: true}, gen.Graph500Config(8, 4, 83)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			el, err := gen.Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Convert(el, t.TempDir(), "v", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if err := Verify(g); err != nil {
				t.Fatalf("clean graph failed verification: %v", err)
			}
		})
	}
}

func TestVerifyDetectsCorruptTuples(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(8, 8, 84))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Convert(el, t.TempDir(), "c", ConvertOptions{
		TileBits: 5, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := g.BasePath()
	g.Close()

	// Corrupt tuple bytes in a non-diagonal tile: its SNB offsets decode
	// into the tile's ranges regardless, so attack the degree consistency
	// instead — flip a tuple's source offset so the recomputed degrees
	// shift.
	data, err := os.ReadFile(base + ".tiles")
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(base+".tiles", data, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if err := Verify(g2); err == nil {
		t.Fatal("corrupted tuples passed verification")
	}
}

func TestVerifyDetectsWrongDegrees(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(8, 4, 85))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Convert(el, t.TempDir(), "d", ConvertOptions{
		TileBits: 5, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := g.BasePath()
	g.Close()

	data, err := os.ReadFile(base + ".deg")
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0x7 // flip bits in some small-degree entry
	if err := os.WriteFile(base+".deg", data, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if err := Verify(g2); err == nil {
		t.Fatal("wrong degree file passed verification")
	}
}

func TestCollectStats(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 8,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
			{Src: 1, Dst: 2}, {Src: 1, Dst: 4}, {Src: 2, Dst: 4},
			{Src: 4, Dst: 5}, {Src: 5, Dst: 6}, {Src: 5, Dst: 7},
		},
	}
	g, err := Convert(el, t.TempDir(), "s", ConvertOptions{
		TileBits: 2, GroupQ: 1, Symmetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	st := CollectStats(g)
	if st.Tiles != 3 || st.EmptyTiles != 0 || st.TotalTuples != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxTuples != 3 || st.TilesUnder1K != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Groups != 3 || st.MinGroup != 3 || st.MaxGroup != 3 {
		t.Fatalf("group stats = %+v", st)
	}
	if st.DataBytes != 9*SNBTupleBytes {
		t.Fatalf("DataBytes = %d", st.DataBytes)
	}
}
