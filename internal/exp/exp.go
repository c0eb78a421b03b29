// Package exp contains one runner per table and figure of the paper's
// evaluation (§VII), plus the extra ablations DESIGN.md commits to. Each
// runner regenerates its artifact at reproduction scale and prints the
// same rows/series the paper reports; EXPERIMENTS.md records the measured
// values next to the paper's.
package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Config shapes a harness run. Scales are chosen so the full suite runs
// in minutes on a laptop while keeping the regime the paper studies
// (graphs much larger than the engine's memory budget).
type Config struct {
	// WorkDir caches generated and converted graphs between runs.
	WorkDir string
	// Scale is the Kronecker scale of the primary workload (Kron-Scale-16
	// standing in for the paper's Kron-28-16).
	Scale uint
	// EdgeFactor is the edge factor of the primary workload.
	EdgeFactor int
	// Seed drives all generators.
	Seed uint64
	// Threads for the engines.
	Threads int
	// Out receives the report tables.
	Out io.Writer
	// Quick shrinks the workloads for smoke runs.
	Quick bool
}

// Defaults fills unset fields.
func (c *Config) Defaults() {
	if c.WorkDir == "" {
		c.WorkDir = filepath.Join(os.TempDir(), "gstore-exp")
	}
	if c.Scale == 0 {
		c.Scale = 18
	}
	if c.Quick && c.Scale > 14 {
		c.Scale = 14
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.Seed == 0 {
		c.Seed = 20161113 // SC'16 opening day
	}
	if c.Threads == 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
}

// Runner is one experiment.
type Runner struct {
	// ID is the table/figure identifier, e.g. "fig9".
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment.
	Run func(*Config) error
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig2a", "Fig 2a: PageRank vs edge tuple size (X-Stream)", Fig2a},
		{"fig2b", "Fig 2b: in-memory PageRank vs partition count", Fig2b},
		{"fig2c", "Fig 2c: PageRank vs streaming memory size", Fig2c},
		{"table1", "Table I: conversion time, CSR vs G-Store", Table1},
		{"table2", "Table II: graph sizes and space savings", Table2},
		{"fig5", "Fig 5: tile edge-count distribution (twitter-like)", Fig5},
		{"fig7", "Fig 7: physical-group edge counts (twitter-like)", Fig7},
		{"table3", "Table III: largest-graph runtimes", Table3},
		{"fig9", "Fig 9: G-Store vs FlashGraph speedups", Fig9},
		{"xstream", "§VII-B: G-Store vs X-Stream speedups", XStreamComparison},
		{"fig10", "Fig 10: space-saving ablation (base/symmetry/+SNB)", Fig10},
		{"fig11", "Fig 11: in-memory speedup vs physical-group size", Fig11},
		{"fig12", "Fig 12: LLC operations and misses vs group size", Fig12},
		{"fig13", "Fig 13: SCR vs base policy", Fig13},
		{"fig14", "Fig 14: effect of cache size", Fig14},
		{"fig15", "Fig 15: scalability on SSDs", Fig15},
		{"aio", "Ablation: batched AIO vs synchronous I/O", AblationAIO},
		{"selective", "Ablation: selective tile fetching", AblationSelective},
		{"policy", "Ablation: proactive vs LRU vs no caching", AblationPolicy},
		{"tiered", "Extension: tiered SSD+HDD store (§IX future work)", ExtTiered},
		{"asyncbfs", "Extension: synchronous vs asynchronous BFS", ExtAsyncBFS},
		{"scc", "Extension: strongly connected components (§IV-A)", ExtSCC},
		{"msbfs", "Extension: multi-source BFS I/O sharing ([22])", ExtMSBFS},
		{"relabel", "Extension: degree-sorted vertex relabeling", ExtRelabel},
	}
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- shared workload helpers ----

// edgeLists memoizes generated graphs within a process.
var edgeLists = map[string]*graph.EdgeList{}

func (c *Config) edgeList(g gen.Config) (*graph.EdgeList, error) {
	key := fmt.Sprintf("%s-%d-%v", g.Name(), g.Seed, g.Directed)
	if el, ok := edgeLists[key]; ok {
		return el, nil
	}
	el, err := gen.Generate(g)
	if err != nil {
		return nil, err
	}
	edgeLists[key] = el
	return el, nil
}

// kronCfg is the primary undirected workload (stands in for Kron-28-16).
func (c *Config) kronCfg() gen.Config {
	return gen.Graph500Config(c.Scale, c.EdgeFactor, c.Seed)
}

// twitterCfg is the directed, heavily skewed workload (stands in for
// Twitter).
func (c *Config) twitterCfg() gen.Config {
	return gen.TwitterLikeConfig(c.Scale, c.EdgeFactor/2, c.Seed+1)
}

// friendsterCfg stands in for Friendster (milder skew, undirected here).
func (c *Config) friendsterCfg() gen.Config {
	g := gen.Graph500Config(c.Scale, c.EdgeFactor/2, c.Seed+2)
	g.A, g.B, g.C = 0.45, 0.22, 0.22
	return g
}

// uniformCfg stands in for Random-27-32.
func (c *Config) uniformCfg() gen.Config {
	return gen.UniformConfig(c.Scale, c.EdgeFactor, c.Seed+3)
}

// memScale is the (larger) scale used by the in-memory cache-locality
// experiments (Figures 2b, 11, 12): the algorithmic metadata must exceed
// the cache for partitioning and grouping to matter.
func (c *Config) memScale() uint {
	if c.Quick {
		return c.Scale
	}
	s := c.Scale + 2
	if s > 20 {
		s = 20
	}
	return s
}

// memCfg is the workload for those experiments.
func (c *Config) memCfg() gen.Config {
	return gen.Graph500Config(c.memScale(), c.EdgeFactor, c.Seed+4)
}

// tileBits picks a tile width that gives a paper-like tile-count regime
// (hundreds to thousands of tiles per side would need terabytes; at
// reproduction scale we target P in the tens).
func (c *Config) tileBits() uint {
	// P = 2^(Scale - tileBits); aim for P = 64.
	if c.Scale <= 6 {
		return 1
	}
	return c.Scale - 6
}

// stdTileOpts returns conversion options with the experiment-scale tile
// width and grouping (filled in by tileGraph).
func (c *Config) stdTileOpts() tile.ConvertOptions {
	return tile.ConvertOptions{Symmetry: true, SNB: true, Degrees: true}
}

// tileGraph generates, converts and caches a tiled graph under
// WorkDir/name. opts.TileBits == 0 selects the config default.
func (c *Config) tileGraph(name string, g gen.Config, opts tile.ConvertOptions) (*tile.Graph, error) {
	if opts.TileBits == 0 {
		opts.TileBits = c.tileBits()
	}
	if opts.GroupQ == 0 {
		opts.GroupQ = 8
	}
	base := tile.BasePath(c.WorkDir, name)
	if _, err := os.Stat(base + ".meta"); err == nil {
		if tg, err := tile.Open(base); err == nil {
			return tg, nil
		}
		// Fall through and re-convert on any open error.
	}
	el, err := c.edgeList(g)
	if err != nil {
		return nil, err
	}
	return tile.Convert(el, c.WorkDir, name, opts)
}

// diskOpts returns engine options that put the run in the paper's
// disk-bound regime: a throttled 8-SSD array and a memory budget well
// below the graph size.
func (c *Config) diskOpts(tg *tile.Graph) core.Options {
	o := core.DefaultOptions()
	o.Threads = c.Threads
	data := tg.DataBytes()
	o.SegmentSize = clamp(data/32, 64<<10, 16<<20)
	// The paper's regime: memory is roughly half the graph data (8 GB vs
	// Kron-28-16's 16 GB), so the cache pool matters but cannot hold
	// everything.
	o.MemoryBytes = clamp(data/2, 4*o.SegmentSize, 1<<30)
	o.Disks = 8
	o.StripeSize = storage.DefaultStripeSize
	// Slow enough that the workload is disk-bound on the reproduction
	// machine, as the paper's terabyte graphs are on its SSD array.
	o.Bandwidth = 16 << 20 // 16 MB/s per simulated SSD
	o.Latency = 100 * time.Microsecond
	return o
}

// tempWorkDir creates a fresh scratch directory under WorkDir.
func tempWorkDir(c *Config, name string) (string, error) {
	if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.WorkDir, "tmp-"+name+"-")
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// runEngine builds an engine over tg, runs a, and tears the engine down.
func runEngine(tg *tile.Graph, opts core.Options, a algo.Algorithm) (*core.Stats, error) {
	e, err := core.NewEngine(tg, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Run(context.Background(), a)
}

// percentile returns the p-quantile (0..1) of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
