package tile

// Stats summarizes tile occupancy (the measurements behind Figures 5
// and 7).
type Stats struct {
	Tiles        int
	EmptyTiles   int
	TilesUnder1K int
	Over100K     int
	MaxTuples    int64
	TotalTuples  int64
	// Groups summarizes physical groups: count and min/max tuple counts.
	Groups    int
	MinGroup  int64
	MaxGroup  int64
	DataBytes int64
}

// CollectStats computes occupancy statistics from the start-edge index
// (no tile data is read).
func CollectStats(g *Graph) Stats {
	st := Stats{Tiles: g.Layout.NumTiles(), DataBytes: g.DataBytes()}
	for i := 0; i < st.Tiles; i++ {
		c := g.TupleCount(i)
		st.TotalTuples += c
		switch {
		case c == 0:
			st.EmptyTiles++
		case c < 1000:
			st.TilesUnder1K++
		}
		if c > 100000 {
			st.Over100K++
		}
		if c > st.MaxTuples {
			st.MaxTuples = c
		}
	}
	ng := g.Layout.NumGroups()
	st.MinGroup = -1
	for gi := uint32(0); gi < ng; gi++ {
		for gj := uint32(0); gj < ng; gj++ {
			lo, hi := g.Layout.GroupRange(gi, gj)
			if hi <= lo {
				continue
			}
			var c int64
			for i := lo; i < hi; i++ {
				c += g.TupleCount(i)
			}
			st.Groups++
			if st.MinGroup < 0 || c < st.MinGroup {
				st.MinGroup = c
			}
			if c > st.MaxGroup {
				st.MaxGroup = c
			}
		}
	}
	if st.MinGroup < 0 {
		st.MinGroup = 0
	}
	return st
}
