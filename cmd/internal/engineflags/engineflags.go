// Package engineflags declares the engine flags that gstore's query
// commands and gstored share: the memory budget, the storage device, the
// cache policy, retries, tracing and fault injection. Each flag is
// declared here once; a binary adds only its own flags beside them.
package engineflags

import (
	"errors"
	"flag"
	"os"
	"strconv"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/storage"
)

// ServedMemory is gstored's -memory default. gstore's is 0, which lets
// the engine derive the budget from the graph (a quarter of its tile
// data, at least 1 MiB). A daemon holds several graphs at once, so it
// takes a fixed per-graph budget instead: that bounds its footprint.
const ServedMemory = 64 << 20

// Register declares the engine flags on fs, -memory defaulting to memory,
// and returns a function that builds core.Options from their parsed
// values. -memory, -segment, -threads, -disks, -ioworkers and -retries
// refuse a negative value while fs parses, and -cache an unknown policy.
func Register(fs *flag.FlagSet, memory int64) func() core.Options {
	def := core.DefaultOptions()
	mem, seg, threads := counter(memory), counter(0), counter(0)
	disks, ioworkers, retries := counter(def.Disks), counter(0), counter(def.MaxRetries)
	fs.Var(&mem, "memory", "streaming+caching memory ceiling in `bytes` per graph (0 = a quarter of the graph's tile data, at least 1 MiB; the engine holds min(memory, 2 segments + tile data))")
	fs.Var(&seg, "segment", "segment size in `bytes` (0 = derived: an eighth of -memory)")
	fs.Var(&threads, "threads", "worker thread `count` per graph (0 = GOMAXPROCS)")
	fs.Var(&disks, "disks", "simulated SSD `count`")
	bw := fs.Float64("bandwidth", 0, "per-disk bandwidth in bytes/s (0 = unthrottled; -backend sim: per disk, file: aggregate)")
	backend := fs.String("backend", "sim", "storage backend: sim (simulated striped array) or file (real async reads)")
	direct := fs.Bool("direct", false, "with -backend file, bypass the page cache (O_DIRECT; falls back to buffered where unsupported)")
	fs.Var(&ioworkers, "ioworkers", "with -backend file, submitter goroutine `count` (0 = default 4)")
	readahead := fs.Int64("readahead", 0, "with -backend file, next-iteration readahead budget in bytes (0 = default 8MiB, negative disables)")
	policy := cachePolicy(def.Cache)
	fs.Var(&policy, "cache", "cache `policy`: proactive (the default), lru or none")
	trace := fs.Bool("trace", false, "print one diagnostic line per iteration on stderr")
	fs.Var(&retries, "retries", "max `count` of re-submissions of a failed read before the run fails")
	faultRate := fs.Float64("faultrate", 0, "injected read-error probability in [0,1]")
	faultShort := fs.Float64("faultshort", 0, "injected short-read probability in [0,1]")
	faultSlow := fs.Float64("faultslow", 0, "injected latency-spike probability in [0,1]")
	faultDelay := fs.Duration("faultdelay", time.Millisecond, "injected latency-spike length")
	faultCorrupt := fs.Float64("faultcorrupt", 0, "injected silent-corruption probability in [0,1]")
	faultSeed := fs.Int64("faultseed", 1, "fault injection seed")
	return func() core.Options {
		o := def
		o.MemoryBytes = int64(mem)
		o.SegmentSize = int64(seg)
		o.Threads = int(threads)
		o.Disks = int(disks)
		o.Bandwidth = *bw
		o.Backend = *backend
		o.DirectIO = *direct
		o.IOWorkers = int(ioworkers)
		o.ReadaheadBytes = *readahead
		o.Cache = core.CachePolicy(policy)
		o.MaxRetries = int(retries)
		if *trace {
			o.Trace = os.Stderr
		}
		if *faultRate > 0 || *faultShort > 0 || *faultSlow > 0 || *faultCorrupt > 0 {
			o.Fault = &storage.FaultConfig{
				Seed:        *faultSeed,
				ErrorRate:   *faultRate,
				ShortRate:   *faultShort,
				SlowRate:    *faultSlow,
				SlowDelay:   *faultDelay,
				CorruptRate: *faultCorrupt,
			}
		}
		return o
	}
}

// counter is an integer flag that refuses a negative value.
type counter int64

func (c *counter) String() string { return strconv.FormatInt(int64(*c), 10) }

func (c *counter) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return errors.Unwrap(err) // strconv.ErrSyntax or ErrRange
	}
	if v < 0 {
		return errors.New("must not be negative")
	}
	*c = counter(v)
	return nil
}

// cachePolicy is the -cache flag: a core.CachePolicy by name.
type cachePolicy core.CachePolicy

func (p *cachePolicy) String() string { return core.CachePolicy(*p).String() }

func (p *cachePolicy) Set(s string) error {
	for c := core.CacheProactive; c <= core.CacheNone; c++ {
		if s == c.String() {
			*p = cachePolicy(c)
			return nil
		}
	}
	return errors.New("want proactive, lru or none")
}
