package exp

import (
	"fmt"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/cachesim"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/report"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Fig10 reproduces Figure 10: runtime with (a) no space saving (full
// matrix, raw 8-byte tuples), (b) symmetry only, and (c) symmetry + SNB,
// on the Kron workload. The paper measures ~2x from symmetry and ~4.8-4.9x
// total — slightly above the 4x space factor, because the saved bytes also
// stretch the cache pool.
func Fig10(c *Config) error {
	c.Defaults()
	variants := []struct {
		label string
		opts  tile.ConvertOptions
	}{
		{"base", tile.ConvertOptions{Codec: "raw", Degrees: true}},
		{"symmetry", tile.ConvertOptions{Symmetry: true, Codec: "raw", Degrees: true}},
		{"symmetry+SNB", tile.ConvertOptions{Symmetry: true, Degrees: true}},
	}
	type res struct {
		label    string
		bfs, pr  time.Duration
		dataSize int64
	}
	var rows []res
	for _, v := range variants {
		v.opts.TileBits = c.tileBits()
		v.opts.GroupQ = 8
		tg, err := c.tileGraph("fig10-"+v.label, c.kronCfg(), v.opts)
		if err != nil {
			return err
		}
		o := c.diskOpts(tg)
		// Fixed absolute memory budget across variants, like the paper's
		// fixed 8 GB: compute it from the largest (base) layout.
		if len(rows) == 0 {
			o.MemoryBytes = clamp(tg.DataBytes()/4, 4*o.SegmentSize, 1<<30)
		} else {
			o.MemoryBytes = clamp(rows[0].dataSize/4, 4*o.SegmentSize, 1<<30)
		}
		bst, err := runEngine(tg, o, algo.NewBFS(0))
		if err != nil {
			return err
		}
		pst, err := runEngine(tg, o, algo.NewPageRank(3))
		if err != nil {
			return err
		}
		rows = append(rows, res{v.label, bst.Elapsed, pst.Elapsed, tg.DataBytes()})
		tg.Close()
	}
	tb := report.New("Fig 10: speedup from space saving ("+c.kronCfg().Name()+")",
		"variant", "data size", "BFS", "BFS speedup", "PageRank", "PR speedup")
	for _, r := range rows {
		tb.Row(r.label, report.Bytes(r.dataSize),
			r.bfs, report.Speedup(rows[0].bfs, r.bfs),
			r.pr, report.Speedup(rows[0].pr, r.pr))
	}
	tb.Fprint(c.Out)
	return nil
}

// groupSweep returns the physical-group widths (in tiles) swept by
// Figures 11 and 12, scaled from the paper's 32x32..1024x1024 over a
// 2^12-tile-per-side grid to the reproduction's grid.
func (c *Config) groupSweep(p uint32) []uint32 {
	var qs []uint32
	for q := uint32(1); q <= p; q *= 2 {
		qs = append(qs, q)
	}
	return qs
}

// Fig11 reproduces Figure 11: in-memory PageRank speed for different
// physical-group compositions. Middle group sizes win: small groups lose
// sequential locality on the rank array, giant groups overflow the LLC.
func Fig11(c *Config) error {
	c.Defaults()
	el, err := c.edgeList(c.memCfg())
	if err != nil {
		return err
	}
	var base time.Duration
	tb := report.New("Fig 11: in-memory PageRank vs group composition ("+c.memCfg().Name()+")",
		"group (tiles)", "time/iter", "speedup vs smallest")
	scale := c.memScale()
	bits := scale - 8 // fine tiles so the group sweep has room
	if bits < 2 || bits > 16 {
		bits = 2
	}
	p := uint32(1) << (scale - bits)
	for _, q := range c.groupSweep(p) {
		dir, err := tempWorkDir(c, "fig11")
		if err != nil {
			return err
		}
		tg, err := tile.Convert(el, dir, "g", tile.ConvertOptions{
			TileBits: bits, GroupQ: q, Symmetry: true, Degrees: true,
		})
		if err != nil {
			return err
		}
		mg, err := core.LoadInMemory(tg)
		if err != nil {
			tg.Close()
			return err
		}
		const iters = 3
		st, err := mg.Run(algo.NewPageRank(iters), c.Threads, iters)
		if err != nil {
			tg.Close()
			return err
		}
		dur := st.Elapsed / iters
		if base == 0 {
			base = dur
		}
		tb.Row(fmt.Sprintf("%dx%d", q, q), dur, report.Speedup(base, dur))
		tg.Close()
	}
	tb.Fprint(c.Out)
	return nil
}

// Fig12 reproduces Figure 12: LLC operations and misses for the same
// group sweep, measured with the cache simulator standing in for hardware
// performance counters (DESIGN.md §2). The middle group sizes minimize
// both curves.
func Fig12(c *Config) error {
	c.Defaults()
	el, err := c.edgeList(c.memCfg())
	if err != nil {
		return err
	}
	tb := report.New("Fig 12: simulated LLC operations and misses ("+c.memCfg().Name()+")",
		"group (tiles)", "LLC ops", "LLC misses", "miss ratio")
	scale := c.memScale()
	bits := scale - 8
	if bits < 2 || bits > 16 {
		bits = 2
	}
	p := uint32(1) << (scale - bits)
	// LLC sized so one group's metadata fits at mid sweep, as on the
	// paper's hardware: vertices-per-group * 8 bytes (rank array) around
	// the middle q should be ~ the cache size.
	llcBytes := int64(1) << scale // V bytes: holds 1/8 of the rank array
	llc := cachesim.Config{SizeBytes: llcBytes, LineBytes: 64, Ways: 16}
	for _, q := range c.groupSweep(p) {
		dir, err := tempWorkDir(c, "fig12")
		if err != nil {
			return err
		}
		tg, err := tile.Convert(el, dir, "g", tile.ConvertOptions{
			TileBits: bits, GroupQ: q, Symmetry: true, Degrees: true,
		})
		if err != nil {
			return err
		}
		st, err := simulatePageRankLLC(tg, llc)
		tg.Close()
		if err != nil {
			return err
		}
		tb.Row(fmt.Sprintf("%dx%d", q, q), st.Ops, st.Misses,
			fmt.Sprintf("%.3f", st.MissRatio()))
	}
	tb.Fprint(c.Out)
	return nil
}

// simulatePageRankLLC walks one PageRank iteration's metadata accesses in
// disk (group) order through the cache simulator: for every tuple, a read
// of share[src] and a read-modify-write of next[dst] (and the mirrored
// pair under symmetry storage).
func simulatePageRankLLC(tg *tile.Graph, llc cachesim.Config) (cachesim.Stats, error) {
	cache, err := cachesim.New(llc)
	if err != nil {
		return cachesim.Stats{}, err
	}
	const shareBase = uint64(0)
	nextBase := uint64(tg.Meta.NumVertices) * 8 // separate array
	var buf []byte
	for i := 0; i < tg.Layout.NumTiles(); i++ {
		data, err := tg.ReadTile(i, buf)
		if err != nil {
			return cachesim.Stats{}, err
		}
		buf = data
		co := tg.Layout.CoordAt(i)
		rb, _ := tg.Layout.VertexRange(co.Row)
		cb, _ := tg.Layout.VertexRange(co.Col)
		err = tile.DecodeTuples(data, tg.Meta.TupleCodec(), rb, cb, func(s, d uint32) {
			cache.Access(shareBase + uint64(s)*8)
			cache.Access(nextBase + uint64(d)*8)
			if tg.Meta.Half && s != d {
				cache.Access(shareBase + uint64(d)*8)
				cache.Access(nextBase + uint64(s)*8)
			}
		})
		if err != nil {
			return cachesim.Stats{}, err
		}
	}
	return cache.Stats(), nil
}

// Fig13 reproduces Figure 13: the SCR cache+rewind policy vs the base
// policy (all memory in two streaming segments, no pool). The paper
// measures ~1.6x for BFS and ~1.35x for PageRank and WCC.
func Fig13(c *Config) error {
	c.Defaults()
	tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	tb := report.New("Fig 13: slide-cache-rewind vs base policy ("+c.kronCfg().Name()+")",
		"algorithm", "base policy", "cache+rewind", "speedup")
	algos := []struct {
		name string
		mk   func() algo.Algorithm
	}{
		{"BFS", func() algo.Algorithm { return algo.NewBFS(0) }},
		{"PageRank", func() algo.Algorithm { return algo.NewPageRank(3) }},
		{"WCC", func() algo.Algorithm { return algo.NewWCC() }},
	}
	for _, a := range algos {
		base := c.diskOpts(tg)
		base.Cache = core.CacheNone
		bst, err := runEngine(tg, base, a.mk())
		if err != nil {
			return err
		}
		scr := c.diskOpts(tg)
		scr.Cache = core.CacheProactive
		sst, err := runEngine(tg, scr, a.mk())
		if err != nil {
			return err
		}
		tb.Row(a.name, bst.Elapsed, sst.Elapsed, report.Speedup(bst.Elapsed, sst.Elapsed))
	}
	tb.Fprint(c.Out)
	return nil
}

// Fig14 reproduces Figure 14: performance as the streaming+caching memory
// budget grows (the paper sweeps 1-8 GB on Kron-28-16 and 1-4 GB on
// Twitter). More memory means a bigger cache pool and fewer repeat reads.
func Fig14(c *Config) error {
	c.Defaults()
	for _, w := range []struct {
		label string
		name  string
		cfg   gen.Config
	}{
		{"kron", "kron-main", c.kronCfg()},
		{"twitter-like", "twitter-main", c.twitterCfg()},
	} {
		tg, err := c.tileGraph(w.name, w.cfg, c.stdTileOpts())
		if err != nil {
			return err
		}
		tb := report.New("Fig 14: effect of memory budget ("+w.label+")",
			"memory", "BFS", "PageRank", "WCC", "BFS speedup", "PR speedup", "WCC speedup")
		maxTile := int64(0)
		for i := 0; i < tg.Layout.NumTiles(); i++ {
			if _, n := tg.TileByteRange(i); n > maxTile {
				maxTile = n
			}
		}
		var baseB, baseP, baseW time.Duration
		for _, frac := range []int64{16, 8, 4, 2, 1} {
			o := c.diskOpts(tg)
			o.SegmentSize = clamp(tg.DataBytes()/frac/8, 64<<10, 16<<20)
			o.MemoryBytes = clamp(tg.DataBytes()/frac, maxI64(4*o.SegmentSize, 2*maxTile), 1<<31)
			bst, err := runEngine(tg, o, algo.NewBFS(0))
			if err != nil {
				return err
			}
			pst, err := runEngine(tg, o, algo.NewPageRank(3))
			if err != nil {
				return err
			}
			wst, err := runEngine(tg, o, algo.NewWCC())
			if err != nil {
				return err
			}
			if baseB == 0 {
				baseB, baseP, baseW = bst.Elapsed, pst.Elapsed, wst.Elapsed
			}
			tb.Row(report.Bytes(o.MemoryBytes), bst.Elapsed, pst.Elapsed, wst.Elapsed,
				report.Speedup(baseB, bst.Elapsed),
				report.Speedup(baseP, pst.Elapsed),
				report.Speedup(baseW, wst.Elapsed))
		}
		tb.Fprint(c.Out)
		tg.Close()
	}
	return nil
}

// Fig15 reproduces Figure 15: scaling with the number of SSDs in the
// RAID-0 array. The paper reaches ~4x on 4 disks and ~6x on 8 (PageRank
// saturates the CPU first).
func Fig15(c *Config) error {
	c.Defaults()
	tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	tb := report.New("Fig 15: scalability on SSDs ("+c.kronCfg().Name()+")",
		"disks", "BFS", "PageRank", "WCC", "BFS speedup", "PR speedup", "WCC speedup")
	var baseB, baseP, baseW time.Duration
	for _, disks := range []int{1, 2, 4, 8} {
		o := c.diskOpts(tg)
		o.Disks = disks
		bst, err := runEngine(tg, o, algo.NewBFS(0))
		if err != nil {
			return err
		}
		pst, err := runEngine(tg, o, algo.NewPageRank(3))
		if err != nil {
			return err
		}
		wst, err := runEngine(tg, o, algo.NewWCC())
		if err != nil {
			return err
		}
		if baseB == 0 {
			baseB, baseP, baseW = bst.Elapsed, pst.Elapsed, wst.Elapsed
		}
		tb.Row(disks, bst.Elapsed, pst.Elapsed, wst.Elapsed,
			report.Speedup(baseB, bst.Elapsed),
			report.Speedup(baseP, pst.Elapsed),
			report.Speedup(baseW, wst.Elapsed))
	}
	tb.Fprint(c.Out)
	return nil
}

// AblationAIO compares batched asynchronous I/O with synchronous
// per-run reads (the §V-B design choice).
func AblationAIO(c *Config) error {
	c.Defaults()
	tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	tb := report.New("Ablation: batched AIO vs synchronous I/O ("+c.kronCfg().Name()+")",
		"mode", "PageRank", "IO wait", "speedup")
	async := c.diskOpts(tg)
	ast, err := runEngine(tg, async, algo.NewPageRank(3))
	if err != nil {
		return err
	}
	syncO := c.diskOpts(tg)
	syncO.SyncIO = true
	sst, err := runEngine(tg, syncO, algo.NewPageRank(3))
	if err != nil {
		return err
	}
	tb.Row("sync (POSIX-style)", sst.Elapsed, sst.IOWait, report.Speedup(sst.Elapsed, sst.Elapsed))
	tb.Row("batched AIO", ast.Elapsed, ast.IOWait, report.Speedup(sst.Elapsed, ast.Elapsed))
	tb.Fprint(c.Out)
	return nil
}

// AblationSelective measures selective tile fetching on BFS (§V-B).
func AblationSelective(c *Config) error {
	c.Defaults()
	tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	tb := report.New("Ablation: selective tile fetching, BFS ("+c.kronCfg().Name()+")",
		"mode", "time", "bytes read", "tiles skipped", "speedup")
	off := c.diskOpts(tg)
	off.Selective = false
	ost, err := runEngine(tg, off, algo.NewBFS(0))
	if err != nil {
		return err
	}
	on := c.diskOpts(tg)
	nst, err := runEngine(tg, on, algo.NewBFS(0))
	if err != nil {
		return err
	}
	tb.Row("all tiles", ost.Elapsed, report.Bytes(ost.BytesRead), ost.TilesSkipped,
		report.Speedup(ost.Elapsed, ost.Elapsed))
	tb.Row("selective", nst.Elapsed, report.Bytes(nst.BytesRead), nst.TilesSkipped,
		report.Speedup(ost.Elapsed, nst.Elapsed))
	tb.Fprint(c.Out)
	return nil
}

// AblationPolicy compares the three caching policies on PageRank and WCC.
func AblationPolicy(c *Config) error {
	c.Defaults()
	tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	tb := report.New("Ablation: caching policy ("+c.kronCfg().Name()+")",
		"policy", "BFS", "BFS bytes", "PageRank", "PR bytes", "WCC", "WCC bytes")
	for _, pol := range []core.CachePolicy{core.CacheNone, core.CacheLRU, core.CacheProactive} {
		o := c.diskOpts(tg)
		o.Cache = pol
		bst, err := runEngine(tg, o, algo.NewBFS(0))
		if err != nil {
			return err
		}
		pst, err := runEngine(tg, o, algo.NewPageRank(3))
		if err != nil {
			return err
		}
		wst, err := runEngine(tg, o, algo.NewWCC())
		if err != nil {
			return err
		}
		tb.Row(pol.String(), bst.Elapsed, report.Bytes(bst.BytesRead),
			pst.Elapsed, report.Bytes(pst.BytesRead),
			wst.Elapsed, report.Bytes(wst.BytesRead))
	}
	tb.Fprint(c.Out)
	return nil
}
