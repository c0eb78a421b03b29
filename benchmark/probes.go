package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/qcache"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/wal"
)

// The probes time each layer's public calls on one small seeded graph,
// with the same procedure whatever workload the pass belongs to: they say
// what a layer costs in isolation, the workload-derived numbers say how
// much of it the workload used. Every timed call is also a span.

const (
	probeReps      = 5       // repetitions of a whole-image pass; the median is reported
	algoReps       = 3       // repetitions of an in-memory kernel run (the costliest probes)
	probeBatch     = 1 << 18 // bytes per Submit→Wait batch (segment-sized at probe scale)
	walPayload     = 64 << 10
	walAppends     = 1000 // p99 needs a thousand raw samples
	probeBatches   = 16   // delta.Apply batches
	schedRuns      = 20
	qcacheLookups  = 200000
	serveProbeHits = 40
)

// rooflineIn is what a workload hands the roofline: the codec and kernel
// its sweeps ran, its worker count, and the sweep rate it achieved
// (stored tuples × iterations ÷ engine time, the same denominator the
// algo.* probes use).
type rooflineIn struct {
	codec, algo string
	threads     int
	swept       float64
}

type prober struct {
	e      *env
	res    *results
	dir    string
	el     *graph.EdgeList
	comp   component
	graphs map[string]*tile.Graph // by codec
}

// timed runs fn under a span named after the probed call.
func (p *prober) timed(name string, fn func() error) (time.Duration, error) {
	id := p.e.tr.begin(name, 0, p.e.tr.newQuery())
	begin := time.Now()
	err := fn()
	d := time.Since(begin)
	p.e.tr.end(id)
	if err != nil {
		return d, fmt.Errorf("probe %s: %w", name, err)
	}
	return d, nil
}

// medianOf repeats a timed call and returns the median duration.
func (p *prober) medianOf(name string, reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := p.timed(name, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func runProbes(e *env, res *results) error {
	p := &prober{e: e, res: res, dir: filepath.Join(e.workDir, "probe"), graphs: map[string]*tile.Graph{}}
	e.tr.startProbes()
	defer func() {
		for _, g := range p.graphs {
			g.Close()
		}
		os.RemoveAll(p.dir)
	}()
	var err error
	if p.el, _, err = genGraph(e.cfg.probeScale, e.cfg.edgeFactor, subSeed(e.seed, streamProbe)); err != nil {
		return err
	}
	p.comp = largestComponent(p.el)
	for _, step := range []func() error{
		p.tileLayer, p.storageLayer, p.algoLayer, p.schedLayer, p.qcacheLayer, p.serverLayer, p.walLayer, p.deltaLayer,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	p.roofline()
	return nil
}

// memTile is one tile read into memory with its grid position.
type memTile struct {
	data             []byte
	rowBase, colBase uint32
}

func loadTiles(g *tile.Graph) ([]memTile, error) {
	out := make([]memTile, g.Layout.NumTiles())
	for i := range out {
		data, err := g.ReadTile(i, nil)
		if err != nil {
			return nil, err
		}
		c := g.Layout.CoordAt(i)
		rb, _ := g.Layout.VertexRange(c.Row)
		cb, _ := g.Layout.VertexRange(c.Col)
		out[i] = memTile{data: data, rowBase: rb, colBase: cb}
	}
	return out, nil
}

// sink keeps the decode loops' result alive.
var sink uint64

func (p *prober) tileLayer() error {
	edges := float64(len(p.el.Edges))
	for _, codec := range []string{"snb", "raw", "v3"} {
		var g *tile.Graph
		d, err := p.timed("tile.Convert", func() (err error) {
			g, err = convertGraph(p.el, p.dir, codec, p.e.cfg.probeScale, codec)
			return err
		})
		if err != nil {
			return err
		}
		p.graphs[codec] = g
		if codec != "raw" {
			p.res.set("tile.convert."+codec+".edges_per_s", edges/d.Seconds())
			p.res.set("tile.stored."+codec+".bytes_per_edge", float64(g.DataBytes())/edges)
		}
		tiles, err := loadTiles(g)
		if err != nil {
			return err
		}
		c := g.Meta.TupleCodec()
		d, err = p.medianOf("tile.DecodeTuples", probeReps, func() error {
			var sum uint64
			for _, t := range tiles {
				if err := tile.DecodeTuples(t.data, c, t.rowBase, t.colBase, func(src, dst uint32) { sum += uint64(src) + uint64(dst) }); err != nil {
					return err
				}
			}
			sink += sum
			return nil
		})
		if err != nil {
			return err
		}
		p.res.set("tile.decode."+codec+".ns_per_edge", float64(d.Nanoseconds())/float64(g.Meta.NumStored))
		if codec == "snb" {
			d, err := p.medianOf("tile.Checksum", probeReps, func() error {
				for _, t := range tiles {
					sink += uint64(tile.Checksum(t.data))
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.res.set("tile.crc.bytes_per_s", float64(g.DataBytes())/d.Seconds())
		}
	}
	return nil
}

// readBatches submits the tiles picked by keep in probeBatch-sized
// batches, waits for each batch, and returns per-batch latencies and the
// bytes delivered. passes full sweeps of the tiles file are made.
func (p *prober) readBatches(name string, dev storage.Device, g *tile.Graph, passes int, keep func(i int) bool) (lat samples, bytes int64, err error) {
	buf := make([]byte, 0, probeBatch)
	var reqs []*storage.Request
	var done []storage.Completion
	flush := func() error {
		if len(reqs) == 0 {
			return nil
		}
		d, err := p.timed(name, func() error {
			if err := dev.Submit(reqs); err != nil {
				return err
			}
			done = dev.Wait(len(reqs), done[:0])
			if len(done) < len(reqs) {
				return fmt.Errorf("device closed with %d of %d reads outstanding", len(reqs)-len(done), len(reqs))
			}
			for _, c := range done {
				if c.Err != nil {
					return c.Err
				}
				bytes += int64(c.N)
			}
			return nil
		})
		lat = append(lat, float64(d)/float64(time.Microsecond))
		reqs, buf = reqs[:0], buf[:0]
		return err
	}
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < g.Layout.NumTiles(); i++ {
			off, n := g.TileByteRange(i)
			if n == 0 || !keep(i) {
				continue
			}
			if len(buf)+int(n) > cap(buf) {
				if err := flush(); err != nil {
					return nil, 0, err
				}
				if int(n) > cap(buf) {
					buf = make([]byte, 0, n)
				}
			}
			start := len(buf)
			buf = buf[:start+int(n)]
			reqs = append(reqs, &storage.Request{Offset: off, Buf: buf[start : start+int(n)], Tag: int64(i)})
		}
		if err := flush(); err != nil {
			return nil, 0, err
		}
	}
	return lat, bytes, nil
}

func (p *prober) storageLayer() error {
	g := p.graphs["snb"]
	perPass := int(g.DataBytes()/probeBatch) + 1
	passes := 1100/perPass + 1 // enough batches for a p99
	all := func(int) bool { return true }

	file, err := storage.NewFileDevice(g.TilesPath(), storage.FileOptions{})
	if err != nil {
		return err
	}
	defer file.Close()
	lat, bytes, err := p.readBatches("storage.FileDevice.Submit+Wait", file, g, passes, all)
	if err != nil {
		return err
	}
	st := file.Stats()
	p.res.set("storage.file.seq.bytes_per_s", float64(bytes)/(lat.sum()/1e6))
	p.res.set("storage.file.coalesce_ratio", ratio(float64(st.Requests), float64(st.Chunks)))
	if err := p.res.setPct("storage.file.batch_p50_us", lat, 0.5, p.e.cfg.strict); err != nil {
		return err
	}
	if err := p.res.setPct("storage.file.batch_p99_us", lat, 0.99, p.e.cfg.strict); err != nil {
		return err
	}

	lat, bytes, err = p.readBatches("storage.FileDevice.Submit+Wait", file, g, passes, func(i int) bool { return i%4 == 0 })
	if err != nil {
		return err
	}
	p.res.set("storage.file.sparse.bytes_per_s", float64(bytes)/(lat.sum()/1e6))

	sim, err := storage.NewArray(g.TilesFile(), storage.DefaultOptions())
	if err != nil {
		return err
	}
	defer sim.Close()
	lat, bytes, err = p.readBatches("storage.Array.Submit+Wait", sim, g, passes/4+1, all)
	if err != nil {
		return err
	}
	p.res.set("storage.sim.seq.bytes_per_s", float64(bytes)/(lat.sum()/1e6))
	return nil
}

func (p *prober) algoLayer() error {
	cfg := p.e.cfg
	roots, err := drawRoots(newRand(p.e.seed, streamProbe), p.comp, 64)
	if err != nil {
		return err
	}
	kernels := []struct {
		metric, codec string
		make          func() algo.Algorithm
	}{
		{"algo.pagerank.v3", "v3", func() algo.Algorithm { return algo.NewPageRank(cfg.prIterations) }},
		{"algo.pagerank.snb", "snb", func() algo.Algorithm { return algo.NewPageRank(cfg.prIterations) }},
		{"algo.bfs.snb", "snb", func() algo.Algorithm { return algo.NewBFS(roots[0]) }},
		{"algo.bfs.v3", "v3", func() algo.Algorithm { return algo.NewBFS(roots[0]) }},
		{"algo.wcc.snb", "snb", func() algo.Algorithm { return algo.NewWCC() }},
		{"algo.msbfs.snb", "snb", func() algo.Algorithm { return algo.NewMSBFS(roots) }},
		{"algo.ppr.snb", "snb", func() algo.Algorithm { return algo.NewPPR(roots[0], cfg.pprIterations) }},
	}
	mem := map[string]*core.MemGraph{}
	for _, k := range kernels {
		mg := mem[k.codec]
		if mg == nil {
			if mg, err = core.LoadInMemory(p.graphs[k.codec]); err != nil {
				return err
			}
			mem[k.codec] = mg
		}
		var perEdge []float64
		for rep := 0; rep < algoReps; rep++ {
			var st *core.Stats
			if _, err := p.timed("core.MemGraph.Run", func() (err error) {
				st, err = mg.Run(k.make(), 1, 0)
				return err
			}); err != nil {
				return err
			}
			swept := float64(p.graphs[k.codec].Meta.NumStored) * float64(st.Iterations)
			perEdge = append(perEdge, float64(st.Elapsed.Nanoseconds())/swept)
		}
		p.res.set(k.metric+".ns_per_edge", median(perEdge))
	}
	return nil
}

// schedLayer times the same BFS through Engine.Run and through a
// Scheduler batch of one, alternately, and reports the median difference:
// the scheduler's fixed cost per query. The root is an isolated vertex,
// so the run is one near-empty sweep and the fixed cost is not lost in
// the noise of a full traversal. It then forces contention — two callers
// on one run slot — to time admission waits: with no more clients than
// run slots the served workloads never queue, so the wait has to be
// provoked to be measured at all.
func (p *prober) schedLayer() error {
	g := p.graphs["snb"]
	root := p.comp.members[0]
	lonely := root
	if p.comp.isolated >= 0 {
		lonely = uint32(p.comp.isolated)
	}
	opts := serveOptions(p.e.clients)
	eng, err := core.NewEngine(g, opts)
	if err != nil {
		return err
	}
	sched := core.NewScheduler(eng)
	var diffs []float64
	for i := 0; i < schedRuns+warmups; i++ {
		solo, err := p.timed("core.Engine.Run", func() error {
			_, err := eng.Run(context.Background(), algo.NewBFS(lonely))
			return err
		})
		var batched time.Duration
		if err == nil {
			batched, err = p.timed("core.Scheduler.Run", func() error {
				_, err := sched.Run(context.Background(), algo.NewBFS(lonely))
				return err
			})
		}
		if err != nil {
			sched.Close()
			eng.Close()
			return err
		}
		if i >= warmups {
			diffs = append(diffs, ms(batched-solo))
		}
	}
	sched.Close()
	eng.Close()
	p.res.set("core.sched.solo_overhead_ms", median(diffs))

	opts.MaxConcurrentRuns = 1
	if eng, err = core.NewEngine(g, opts); err != nil {
		return err
	}
	defer eng.Close()
	sched = core.NewScheduler(eng)
	defer sched.Close()
	var mu sync.Mutex
	var waits samples
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < schedRuns; i++ {
				st, err := sched.Run(context.Background(), algo.NewBFS(root))
				if err != nil {
					errs <- fmt.Errorf("probe core.Scheduler.Run under contention: %w", err)
					return
				}
				mu.Lock()
				waits = append(waits, ms(st.QueueWait))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	return p.res.setPct("core.sched.queue_wait_p50_ms", waits, 0.5, p.e.cfg.strict)
}

func (p *prober) qcacheLayer() error {
	c := qcache.New(1<<20, time.Minute)
	fill := func() (interface{}, int64, error) { return "resident", 64, nil }
	if _, _, err := c.Do(context.Background(), "k", 1, fill); err != nil {
		return err
	}
	d, err := p.medianOf("qcache.Cache.Do", probeReps, func() error {
		for i := 0; i < qcacheLookups; i++ {
			if _, outcome, err := c.Do(context.Background(), "k", 1, fill); err != nil || outcome != qcache.Hit {
				return fmt.Errorf("lookup %d: outcome %v, err %v", i, outcome, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("qcache.do.hit_ns", float64(d.Nanoseconds())/qcacheLookups)
	return nil
}

// serverLayer times the HTTP tier on the probe graph with one client:
// the round trip of a result-cache hit, and on computed replies the
// client latency minus the engine time the reply itself reports — HTTP,
// routing, the coalescing window and JSON.
func (p *prober) serverLayer() error {
	rig, err := openServed(p.el, filepath.Join(p.dir, "served"), p.e.cfg.probeScale, p.e.clients, p.e.tr)
	if err != nil {
		return err
	}
	defer rig.close()
	cfg := p.e.cfg
	var hits, overhead samples
	// One root over and over gives a miss, then hits; a new root each
	// time gives misses. The first replies of each kind are warm-up.
	for i := 0; i < serveProbeHits+warmups+1; i++ {
		resp, err := rig.get(cfg, request{root: p.comp.members[0]}, true)
		if err != nil {
			return fmt.Errorf("probe server: %w", err)
		}
		if i > warmups && resp.cache == "hit" {
			hits = append(hits, float64(resp.lat)/float64(time.Microsecond))
		}
	}
	for i := 1; i <= schedRuns+warmups; i++ {
		resp, err := rig.get(cfg, request{root: p.comp.members[i]}, true)
		if err != nil {
			return fmt.Errorf("probe server: %w", err)
		}
		if i > warmups && resp.cache == "miss" {
			overhead = append(overhead, ms(resp.lat)-resp.body.Stats.ElapsedMS)
		}
	}
	if err := p.res.setPct("server.hit_rtt_p50_us", hits, 0.5, cfg.strict); err != nil {
		return err
	}
	return p.res.setPct("server.miss_overhead_p50_ms", overhead, 0.5, cfg.strict)
}

func (p *prober) walLayer() error {
	dir := filepath.Join(p.dir, "wal")
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, walPayload)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var lat samples
	for i := 0; i < walAppends; i++ {
		d, err := p.timed("wal.W.Append", func() error { return w.Append(payload) })
		if err != nil {
			w.Close()
			return err
		}
		lat = append(lat, float64(d)/float64(time.Microsecond))
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := p.res.setPct("wal.append.p50_us", lat, 0.5, p.e.cfg.strict); err != nil {
		return err
	}
	if err := p.res.setPct("wal.append.p99_us", lat, 0.99, p.e.cfg.strict); err != nil {
		return err
	}
	p.res.set("wal.append.bytes_per_s", float64(walAppends*walPayload)/(lat.sum()/1e6))
	var replayed int64
	d, err := p.timed("wal.Replay", func() error {
		_, err := wal.Replay(dir, func(rec []byte) error {
			replayed += int64(len(rec))
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	if replayed != walAppends*walPayload {
		return fmt.Errorf("probe wal.Replay: replayed %d bytes, appended %d", replayed, walAppends*walPayload)
	}
	p.res.set("wal.replay.bytes_per_s", float64(replayed)/d.Seconds())
	return os.RemoveAll(dir)
}

func (p *prober) deltaLayer() error {
	cfg := p.e.cfg
	batches := opStream(newRand(p.e.seed, streamProbe+1), p.el, p.comp, probeBatches, cfg.batchOps)
	ops := float64(probeBatches * cfg.batchOps)
	for _, codec := range []string{"snb", "v3"} {
		g := p.graphs[codec]
		before, err := dirBytes(p.dir)
		if err != nil {
			return err
		}
		ds, err := delta.Open(g, g.BasePath(), delta.Options{})
		if err != nil {
			return err
		}
		var applyTime time.Duration
		for _, b := range batches {
			d, err := p.timed("delta.Store.Apply", func() error {
				_, err := ds.Apply(b)
				return err
			})
			if err != nil {
				ds.Close()
				return err
			}
			applyTime += d
		}
		flush, err := p.timed("delta.Store.Flush", ds.Flush)
		if err != nil {
			ds.Close()
			return err
		}

		// Merge each dirty tile of the fresh view once: the memo is cold,
		// so this is the cost a read pays the first time it meets a tile
		// after a write.
		view := ds.View()
		var mergeTime time.Duration
		var merged int64
		for _, di := range view.TileIndexes() {
			base, err := g.ReadTile(di, nil)
			if err != nil {
				ds.Close()
				return err
			}
			c := g.Layout.CoordAt(di)
			rb, _ := g.Layout.VertexRange(c.Row)
			cb, _ := g.Layout.VertexRange(c.Col)
			td := view.Tile(di)
			d, err := p.timed("delta.TileDelta.Merge", func() error {
				_, err := td.Merge(base, g.Meta.TupleCodec(), g.Layout.TileBits, rb, cb)
				return err
			})
			if err != nil {
				ds.Close()
				return err
			}
			mergeTime += d
			merged += g.TupleCount(di) + int64(len(td.Ins()))/tile.SNBTupleBytes
		}
		p.res.set("delta.merge."+codec+".ns_per_edge", ratio(float64(mergeTime.Nanoseconds()), float64(merged)))

		if err := ds.Close(); err != nil {
			return err
		}
		var reopened *delta.Store
		recoverTime, err := p.timed("delta.Open", func() (err error) {
			reopened, err = delta.Open(g, g.BasePath(), delta.Options{})
			return err
		})
		if err != nil {
			return err
		}
		if got, want := reopened.View().Upto(), uint64(probeBatches); got != want {
			reopened.Close()
			return fmt.Errorf("probe delta.Open: recovered through sequence %d, acked %d", got, want)
		}
		if err := reopened.Close(); err != nil {
			return err
		}
		if codec == "snb" {
			after, err := dirBytes(p.dir)
			if err != nil {
				return err
			}
			p.res.set("delta.apply.ops_per_s", ops/applyTime.Seconds())
			p.res.set("delta.flush_ms", ms(flush))
			p.res.set("delta.recover_ms", ms(recoverTime))
			p.res.set("delta.snapshot.bytes_per_op", float64(after-before)/ops)
		}
	}
	return nil
}

// roofline derives, from the probes, the sweep rate the device and the
// CPU could each sustain for the workload's codec and kernel, and the
// share of the lower one the workload achieved.
func (p *prober) roofline() {
	in, v := p.res.roof, p.res.vals
	device := v["storage.file.seq.bytes_per_s"] / v["tile.stored."+in.codec+".bytes_per_edge"]
	cpu := float64(in.threads) * 1e9 / v["algo."+in.algo+"."+in.codec+".ns_per_edge"]
	p.res.set("core.roofline.device_edges_per_s", device)
	p.res.set("core.roofline.cpu_edges_per_s", cpu)
	bound := device
	if cpu < bound {
		bound = cpu
	}
	p.res.set("core.roofline.achieved_frac", in.swept/bound)
}
