package exp

import (
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/report"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/xstream"
)

// Fig2a reproduces Figure 2(a): PageRank performance doubles when the
// edge tuple shrinks from 16 to 8 bytes, because the streaming engine is
// I/O-bound. Measured with the X-Stream baseline, as in the paper.
func Fig2a(c *Config) error {
	c.Defaults()
	el, err := c.edgeList(c.kronCfg())
	if err != nil {
		return err
	}
	iters := 3
	runWidth := func(tb int) (time.Duration, error) {
		opts := xstream.DefaultOptions()
		opts.TupleBytes = tb
		opts.Partitions = 16
		opts.Disks = 8
		opts.Bandwidth = 48 << 20
		opts.Latency = 100 * time.Microsecond
		dir, err := tempWorkDir(c, "fig2a")
		if err != nil {
			return 0, err
		}
		e, err := xstream.Build(el, dir, opts)
		if err != nil {
			return 0, err
		}
		defer e.Close()
		st, err := e.Run(xstream.NewPageRank(iters, el.OutDegrees()))
		if err != nil {
			return 0, err
		}
		return st.Elapsed, nil
	}
	t16, err := runWidth(16)
	if err != nil {
		return err
	}
	t8, err := runWidth(8)
	if err != nil {
		return err
	}
	tb := report.New("Fig 2a: PageRank vs edge tuple size ("+c.kronCfg().Name()+", X-Stream engine)",
		"tuple", "time", "speedup vs 16-byte")
	tb.Row("16-byte", t16, report.Speedup(t16, t16))
	tb.Row("8-byte", t8, report.Speedup(t16, t8))
	tb.Fprint(c.Out)
	return nil
}

// Fig2b reproduces Figure 2(b): in-memory PageRank speed as a function of
// the number of 2D partitions. Too few partitions overflow the cache with
// metadata; too many add per-partition overhead. The paper's sweet spot
// is 128–256 partitions for Kron-28-16.
func Fig2b(c *Config) error {
	c.Defaults()
	el, err := c.edgeList(c.memCfg())
	if err != nil {
		return err
	}
	tb := report.New("Fig 2b: in-memory PageRank vs partition count ("+c.memCfg().Name()+")",
		"partitions", "tile bits", "time/iter", "speedup vs 1")
	var base time.Duration
	// Partition counts p^2 for p = 2^k: sweep tile bits downward from the
	// one-partition layout (capped at the format's 16-bit tile width).
	scale := c.memScale()
	start := scale
	if start > 16 {
		start = 16
	}
	for k := 0; ; k++ {
		bits := start - uint(k)
		if bits < 2 || k > 7 {
			break
		}
		dur, err := inMemoryPageRankTime(c, el, bits, 1<<14 /* one big group */)
		if err != nil {
			return err
		}
		p := 1 << (scale - bits)
		if base == 0 {
			base = dur
		}
		tb.Row(p*p, bits, dur, report.Speedup(base, dur))
	}
	tb.Fprint(c.Out)
	return nil
}

// inMemoryPageRankTime converts el at the given tile width, preloads all
// tiles, and times PageRank iterations with no I/O in the loop.
func inMemoryPageRankTime(c *Config, el *graph.EdgeList, bits uint, q uint32) (time.Duration, error) {
	dir, err := tempWorkDir(c, "fig2b")
	if err != nil {
		return 0, err
	}
	tg, err := tile.Convert(el, dir, "mem", tile.ConvertOptions{
		TileBits: bits, GroupQ: q, Symmetry: true, Degrees: true,
	})
	if err != nil {
		return 0, err
	}
	defer tg.Close()
	mg, err := core.LoadInMemory(tg)
	if err != nil {
		return 0, err
	}
	const iters = 3
	st, err := mg.Run(algo.NewPageRank(iters), c.Threads, iters)
	if err != nil {
		return 0, err
	}
	return st.Elapsed / iters, nil
}

// Fig2c reproduces Figure 2(c): the amount of memory dedicated to
// streaming has very limited effect — the algorithm is disk-bound, so
// bigger streaming buffers don't help (which motivates giving the memory
// to the cache pool instead).
func Fig2c(c *Config) error {
	c.Defaults()
	tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
	if err != nil {
		return err
	}
	defer tg.Close()
	tb := report.New("Fig 2c: PageRank vs streaming memory size ("+c.kronCfg().Name()+", no cache pool)",
		"stream memory", "segment", "time", "speedup vs smallest")
	maxTile := int64(0)
	for i := 0; i < tg.Layout.NumTiles(); i++ {
		if _, n := tg.TileByteRange(i); n > maxTile {
			maxTile = n
		}
	}
	var base time.Duration
	for _, frac := range []int64{64, 32, 16, 8, 4, 2} {
		o := c.diskOpts(tg)
		o.Cache = core.CacheNone // isolate streaming-memory effect
		o.MemoryBytes = clamp(tg.DataBytes()/frac, 2*maxTile, 1<<30)
		st, err := runEngine(tg, o, algo.NewPageRank(3))
		if err != nil {
			return err
		}
		if base == 0 {
			base = st.Elapsed
		}
		tb.Row(report.Bytes(o.MemoryBytes), report.Bytes(o.MemoryBytes/2), st.Elapsed,
			report.Speedup(base, st.Elapsed))
	}
	tb.Fprint(c.Out)
	return nil
}
