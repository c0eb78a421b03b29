package tile

import (
	"testing"

	"github.com/gwu-systems/gstore/internal/graph"
)

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
