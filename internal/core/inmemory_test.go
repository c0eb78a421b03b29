package core

import (
	"math"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
)

// TestInMemoryMatchesDiskEngine runs the in-memory mode on four workers
// over every codec: MemGraph feeds kernels through the same decode helper
// and the same worker contract (Workers = threads, stable IDs) as the
// disk engine, so the answers must match the references exactly.
func TestInMemoryMatchesDiskEngine(t *testing.T) {
	el := kron(t, 10, 8, 31)
	csr := graph.NewCSR(el, false)
	want := graph.RefBFS(csr, 0)
	wantR := graph.RefPageRank(csr, graph.DefaultPageRank(8))
	wantL := graph.RefWCC(el)
	for _, codec := range []string{"snb", "raw", "v3"} {
		g := convertCodec(t, el, 6, 4, codec)
		mg, err := LoadInMemory(g)
		if err != nil {
			t.Fatal(err)
		}
		if mg.Bytes() != g.DataBytes() {
			t.Fatalf("%s: loaded %d bytes, want %d", codec, mg.Bytes(), g.DataBytes())
		}

		b := algo.NewBFS(0)
		st, err := mg.Run(b, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range b.Depths() {
			if d != want[v] {
				t.Fatalf("%s: depth[%d] = %d, want %d", codec, v, d, want[v])
			}
		}
		if st.TilesProcessed == 0 || st.Elapsed <= 0 {
			t.Fatalf("%s: stats = %+v", codec, st)
		}

		p := algo.NewPageRank(8)
		if _, err := mg.Run(p, 4, 8); err != nil {
			t.Fatal(err)
		}
		for v, r := range p.Ranks() {
			if math.Abs(r-wantR[v]) > 1e-9 {
				t.Fatalf("%s: rank[%d] = %v, want %v", codec, v, r, wantR[v])
			}
		}

		w := algo.NewWCC()
		if _, err := mg.Run(w, 4, 0); err != nil {
			t.Fatal(err)
		}
		for v, l := range w.Labels() {
			if l != wantL[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", codec, v, l, wantL[v])
			}
		}
	}
}

func TestInMemorySelectiveSkips(t *testing.T) {
	n := uint32(512)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	g := convert(t, el, 5, 2)
	mg, err := LoadInMemory(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mg.Run(algo.NewBFS(0), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesSkipped == 0 {
		t.Fatal("in-memory run ignored selective iteration")
	}
}

func TestEngineHDDTier(t *testing.T) {
	el := kron(t, 10, 8, 32)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.Cache = CacheNone
	opts.Bandwidth = 512 << 20
	opts.HDD = &HDDTier{Fraction: 0.5, Disks: 1, Bandwidth: 64 << 20}
	b := algo.NewBFS(0)
	st := runAlg(t, g, opts, b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.BytesRead == 0 {
		t.Fatal("no bytes read through tiered device")
	}
}

func TestEngineHDDTierValidation(t *testing.T) {
	el := kron(t, 9, 4, 33)
	g := convert(t, el, 5, 2)
	opts := smallOpts()
	opts.HDD = &HDDTier{Fraction: 1.5}
	if _, err := NewEngine(g, opts); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

// The tiered engine must slow down gracefully as more of the graph moves
// to the slow tier.
func TestEngineHDDTierDegradation(t *testing.T) {
	el := kron(t, 11, 8, 34)
	g := convert(t, el, 6, 4)
	// Compare the storage model's charged service time rather than
	// wall-clock, which compute noise (e.g. the race detector) distorts.
	busy := func(frac float64) int64 {
		opts := smallOpts()
		opts.Cache = CacheNone
		opts.Bandwidth = 1 << 30
		opts.Latency = 10 * time.Microsecond
		opts.HDD = &HDDTier{Fraction: frac, Disks: 1, Bandwidth: 2 << 20,
			Latency: time.Millisecond}
		st := runAlg(t, g, opts, algo.NewPageRank(2))
		return int64(st.Storage.BusyTime)
	}
	fast := busy(0)
	slow := busy(0.9)
	if slow < 2*fast {
		t.Fatalf("90%% HDD run charged %d busy-ns, all-SSD %d; expected much more", slow, fast)
	}
}
