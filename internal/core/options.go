// Package core implements the G-Store engine: the slide-cache-rewind
// (SCR) scheduler of §VI that pipelines tile I/O with computation,
// proactively caches tiles the algorithm will need next iteration, and
// rewinds each iteration to consume cached data before touching disk.
package core

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/storage"
)

// CachePolicy selects how the memory beyond the two streaming segments is
// used. The paper's contribution is Proactive; None is the Figure 13
// "base policy" (all memory in two big double-buffered segments); LRU is
// the FlashGraph-style policy the paper argues against (§III
// Observation 3).
type CachePolicy int

const (
	// CacheProactive keeps tiles the algorithm predicts it needs next
	// iteration and rewinds to process them before any I/O.
	CacheProactive CachePolicy = iota
	// CacheLRU keeps recently streamed tiles, evicting oldest-first.
	CacheLRU
	// CacheNone streams only; the cache pool stays empty.
	CacheNone
)

const (
	// defaultChunkBytes is the chunk threshold normalize fills in: large
	// enough that chunk dispatch overhead is noise (a 256 KiB SNB chunk
	// holds 64Ki tuples), small enough that the densest tiles of a
	// power-law graph split into many work items.
	defaultChunkBytes = 256 << 10
	// maxIterations bounds every run (safety net for non-converging
	// input).
	maxIterations = 1 << 20
)

func (p CachePolicy) String() string {
	switch p {
	case CacheProactive:
		return "proactive"
	case CacheLRU:
		return "lru"
	case CacheNone:
		return "none"
	default:
		return fmt.Sprintf("CachePolicy(%d)", int(p))
	}
}

// Options configures an engine run.
type Options struct {
	// MemoryBytes is the memory budget for streaming and caching graph
	// data (the paper reserves 8 GB; experiments here scale it to the
	// graph). Zero selects the paper's semi-external regime: a quarter of
	// the graph's tile bytes, at least 1 MiB. It is a ceiling: NewEngine
	// caps the cache pool and each segment at the graph's tile bytes, so
	// a small graph under a large budget holds min(MemoryBytes,
	// 2 segments + tile data).
	MemoryBytes int64
	// SegmentSize is the size of each of the two streaming segments
	// (paper: 256 MB), capped like MemoryBytes. Zero selects
	// MemoryBytes/8.
	SegmentSize int64
	// Threads processes tiles concurrently (paper: OpenMP dynamic
	// scheduling over rows). Defaults to GOMAXPROCS.
	Threads int
	// Selective enables metadata-driven selective tile fetching (§V-B).
	Selective bool
	// Cache selects the caching policy (see CachePolicy).
	Cache CachePolicy
	// SyncIO disables batched asynchronous I/O and reads tile runs
	// one synchronous request at a time (the POSIX-I/O ablation).
	SyncIO bool

	// MaxRetries is how many times one failed or short read request is
	// re-submitted before the error surfaces and fails the Run. Zero
	// disables retries. A failed Run always leaves the engine reusable:
	// every error path releases its segments and drains in-flight I/O.
	// The pause before the first retry is 100µs, doubling with each
	// further attempt up to 10ms.
	MaxRetries int

	// Fault, when non-nil, wraps the storage array in a fault-injecting
	// FaultDevice (seeded, deterministic) so runs can be exercised under
	// read errors, short reads, and latency spikes.
	Fault *storage.FaultConfig

	// Backend selects the storage device serving tile reads: "sim" (the
	// default simulated SSD array, deterministic and throttleable per
	// disk) or "file" (real positional reads against the tiles file with
	// request coalescing — the hardware-measurement backend).
	Backend string
	// IOWorkers is the file backend's submitter goroutine pool size (its
	// effective queue depth against the kernel). Zero selects the
	// backend's default of 4. Ignored by the simulator, which sizes its
	// pool by Disks.
	IOWorkers int
	// DirectIO makes the file backend attempt O_DIRECT reads (Linux),
	// falling back to buffered reads where the platform or filesystem
	// refuses. Ignored by the simulator.
	DirectIO bool
	// ReadaheadBytes caps how many bytes of next-iteration tiles the
	// engine hints to the device per iteration (NeedTileNextIter-driven
	// sequential readahead). Zero selects an 8 MiB default on the file
	// backend; negative disables hinting.
	ReadaheadBytes int64

	// Storage simulation parameters (see internal/storage). Bandwidth
	// and Latency are per simulated disk on the sim backend; on the file
	// backend they configure an aggregate throttle (zero = raw hardware
	// speed). The simulated array stripes at storage.DefaultStripeSize.
	Disks     int
	Bandwidth float64
	Latency   time.Duration

	// HDD, when set with a positive Fraction, simulates the tiered store
	// of the paper's future work (§IX): the trailing Fraction of the
	// tiles file is served by a slower device.
	HDD *HDDTier

	// Trace, when non-nil, receives one diagnostic line per run per
	// iteration (tiles processed / cached / skipped, bytes read, IO wait,
	// compute), from Engine.Run and Scheduler.Run alike.
	Trace io.Writer

	// MaxConcurrentRuns caps how many algorithm runs a Scheduler
	// co-schedules onto one shared SCR sweep (1..64; the per-tile
	// interest set is a 64-bit mask). Engine.Run admits nothing: it steps
	// the same loop with its one run.
	MaxConcurrentRuns int
	// MaxQueuedRuns bounds the Scheduler's admission wait queue; a run
	// arriving with the batch and the queue both full is rejected with
	// ErrQueueFull (servers surface 429). Zero queues nothing.
	MaxQueuedRuns int
	// BatchWindow is how long a Scheduler.RunPersonalBFS root that finds
	// the engine busy waits for company: the distinct roots arriving
	// within the window fuse into one multi-source BFS (up to 64 roots)
	// occupying a single run slot. A root that finds the engine idle runs
	// a solo BFS at once, as does a window that closes with one distinct
	// root. Zero (the default) disables coalescing — every personalized
	// query runs as a solo BFS.
	BatchWindow time.Duration

	// The fields below are set by normalize; only this package's tests
	// change them.

	// chunkBytes caps the tile data handed to one worker as a single work
	// item (default defaultChunkBytes). Tiles larger than this split into
	// several tuple-aligned chunks, so a power-law segment dominated by
	// one dense tile still keeps every worker busy. A negative value
	// dispatches whole tiles. The effective size is rounded down to the
	// graph's tuple alignment (minimum one tuple).
	chunkBytes int64
	// retryBackoff is the pause before the first retry of a request; it
	// doubles with each further attempt, capped at retryBackoffMax.
	retryBackoff, retryBackoffMax time.Duration
}

// HDDTier describes the slow tier of a tiered store.
type HDDTier struct {
	// Fraction of the tiles file (from the end) on the slow tier, 0..1.
	Fraction float64
	// Disks in the slow array.
	Disks int
	// Bandwidth per slow disk in bytes/second.
	Bandwidth float64
	// Latency per request (seek-dominated for hard drives).
	Latency time.Duration
}

// DefaultOptions returns a configuration mirroring the paper's setup,
// scaled for reproduction machines: 64 MB of streaming+caching memory
// (so 8 MB segments) over an unthrottled 8-disk array.
func DefaultOptions() Options {
	return Options{
		MemoryBytes: 64 << 20,
		Threads:     runtime.GOMAXPROCS(0),
		Selective:   true,
		Cache:       CacheProactive,
		MaxRetries:  3,
		Disks:       8,

		MaxConcurrentRuns: 4,
		MaxQueuedRuns:     64,
	}
}

func (o *Options) normalize() error {
	switch o.Backend {
	case "", "sim":
		o.Backend = "sim"
	case "file":
	default:
		return fmt.Errorf("core: unknown storage backend %q (want sim or file)", o.Backend)
	}
	if o.IOWorkers < 0 {
		o.IOWorkers = 0
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.chunkBytes == 0 {
		o.chunkBytes = defaultChunkBytes
	}
	if o.Disks <= 0 {
		o.Disks = 1
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.MaxConcurrentRuns <= 0 {
		o.MaxConcurrentRuns = 1
	}
	if o.MaxConcurrentRuns > 64 {
		o.MaxConcurrentRuns = 64 // one interest bit per run
	}
	if o.MaxQueuedRuns < 0 {
		o.MaxQueuedRuns = 0
	}
	if o.BatchWindow < 0 {
		o.BatchWindow = 0
	}
	if o.retryBackoff <= 0 {
		o.retryBackoff = 100 * time.Microsecond
	}
	if o.retryBackoffMax <= 0 {
		o.retryBackoffMax = 10 * time.Millisecond
	}
	if o.HDD != nil {
		if o.HDD.Fraction < 0 || o.HDD.Fraction > 1 {
			return fmt.Errorf("core: HDD tier fraction %v outside [0,1]", o.HDD.Fraction)
		}
		if o.HDD.Disks <= 0 {
			o.HDD.Disks = 1
		}
	}
	switch {
	case o.Cache == CacheNone:
		// Without a pool the whole budget belongs to the double buffer,
		// as in the paper's base policy.
		o.SegmentSize = o.MemoryBytes / 2
	case o.SegmentSize == 0:
		o.SegmentSize = o.MemoryBytes / 8
	}
	if o.SegmentSize <= 0 {
		return fmt.Errorf("core: segment size %d must be positive", o.SegmentSize)
	}
	if o.MemoryBytes < 2*o.SegmentSize {
		return fmt.Errorf("core: memory %d cannot hold two %d-byte segments",
			o.MemoryBytes, o.SegmentSize)
	}
	return nil
}

// Stats reports one engine run. Engine.Run and Scheduler.Run fill it from
// the same code, so every field means the same thing on both.
type Stats struct {
	Algorithm  string
	Iterations int
	Elapsed    time.Duration
	// IOWait, Compute and the rest of Elapsed split the sweep driver's own
	// time three ways; they never overlap, so they never sum past Elapsed.
	//
	// IOWait is the time the driver spent blocked on device completions.
	// It waits for segment k+1's bytes while the workers are still on
	// segment k, so IOWait is an upper bound on the I/O the slide failed
	// to hide from the workers, not a measure of it; WorkerBusy says how
	// idle the workers really were.
	IOWait time.Duration
	// Compute is the time the driver spent handing work items to the
	// workers or blocked until a segment's (or the rewind's) last item was
	// done. Verifying and splitting segment k+1, retiring segment k and
	// the kernel's Before/AfterIteration hooks are in neither figure; the
	// first overlaps the workers' processing of segment k.
	Compute time.Duration

	TilesProcessed int64
	TilesFromCache int64
	TilesFetched   int64
	TilesSkipped   int64 // skipped by selective fetching
	// DeltaTiles counts dispatched tiles whose data was merged with the
	// mutable delta layer (zero without a delta store or mutations).
	DeltaTiles int64
	// BytesRead and IORequests are the run's attributed share of the tile
	// stream: a tile fetched for k interested runs charges each of them
	// 1/k of its bytes, a segment's read batch 1/k of its requests, and
	// the sums are rounded once at the end. A run alone on its sweep is
	// charged every tile byte and every planned request it consumed.
	// Neither counts a retry's or a checksum re-read's repeated I/O
	// (Retries, IOFailures and ChecksumMismatches do); what the device
	// served, repeats included, is in Storage and IO.
	BytesRead  int64
	IORequests int64
	// UnattributedBytes counts fetched tile bytes the engine could charge
	// to no run during this run's window: every run interested in the tile
	// finished between fetch planning and dispatch. The device read them,
	// so they appear in Storage but in no run's BytesRead.
	UnattributedBytes int64

	// Chunks counts the work items dispatched to workers; it exceeds
	// TilesProcessed whenever tiles split at the chunk-size boundary.
	Chunks int64
	// WorkerBusy is, per worker ID, the time spent inside kernel code
	// during this run's window — on a shared sweep, for every rider's
	// kernels, as the windows of co-scheduled runs overlap.
	WorkerBusy []time.Duration
	// WorkerChunks is, per worker ID, the work items processed in the
	// same window.
	WorkerChunks []int64
	// Imbalance is max/mean over WorkerBusy: 1.0 is a perfectly balanced
	// run, Threads is one worker doing everything. Zero when the run did
	// no measurable compute.
	Imbalance float64

	// IOFailures counts failed or short read attempts the scheduler
	// observed; each may be retried, so IOFailures > 0 with a nil Run
	// error means retries recovered the run.
	IOFailures int64
	// Retries counts read requests re-submitted after a failure.
	Retries int64

	// TilesVerified counts tiles whose CRC32C was checked on the hot
	// read path: every fetched tile.
	TilesVerified int64
	// ChecksumMismatches counts verification failures observed; each is
	// retried with one re-read, so ChecksumMismatches > 0 with a nil Run
	// error means the re-reads came back clean (in-flight corruption).
	ChecksumMismatches int64
	// IntegrityErrors counts runs failed by persistent corruption (a
	// mismatch that survived the re-read); 0 or 1 per run.
	IntegrityErrors int64
	// Faults holds the injected-fault counters for this run's window when
	// Options.Fault is set (zero otherwise); it is IO.Faults.
	Faults storage.FaultStats

	// QueueWait is how long the run waited for Scheduler admission before
	// its first iteration (zero for Engine.Run and immediate admissions).
	QueueWait time.Duration
	// SharedRuns is the peak number of runs co-scheduled on this run's
	// sweep batch, itself included (1 = it ran alone; 0 = it never reached
	// a sweep).
	SharedRuns int
	// BatchedRoots is, for personalized BFS submissions, how many query
	// roots shared the one run slot that answered this query (1 = no
	// coalescing happened; up to 64). Zero for ordinary runs.
	BatchedRoots int

	MetadataBytes int64
	Mem           mem.Stats
	Storage       storage.Stats
	// IO holds the storage backend's extended counters for this run's
	// window (queue depth, coalescing, read-latency histogram).
	IO storage.ExtStats
	// Totals is the engine's lifetime counters as they stood when the run
	// was sealed (like Storage and Mem). IO, Faults, UnattributedBytes,
	// WorkerBusy and WorkerChunks above are this run's window over them,
	// and the windows of co-scheduled runs overlap: a publisher that wants
	// each unit of work counted exactly once sets its series from Totals,
	// as PublishStats does.
	Totals Counters
}

// MTEPS returns millions of traversed edges per second given an edge
// count (the Graph500 metric the paper reports for BFS).
func (s Stats) MTEPS(edges int64) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(edges) / s.Elapsed.Seconds() / 1e6
}
