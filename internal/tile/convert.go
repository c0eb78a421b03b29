package tile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/grid"
)

// ConvertOptions controls the conversion of an edge list into the tile
// format. DefaultConvertOptions is the paper's configuration.
type ConvertOptions struct {
	// TileBits is the log2 tile width (the paper uses 16; tests use less).
	// Zero selects 16.
	TileBits uint
	// GroupQ is the physical group width in tiles (§V-A; the paper finds
	// 256 optimal on its hardware). Zero selects 256.
	GroupQ uint32
	// Symmetry stores only the upper triangle of undirected graphs
	// (§IV-A). Ignored for directed graphs, which always store one
	// direction only. Disabling it reproduces the "Base" and "Symmetry
	// off" ablation configurations of Figure 10.
	Symmetry bool
	// Codec names the tuple codec: "snb" (the 4-byte smallest-number-of-
	// bits tuples of §IV-B), "raw" (full 8-byte tuples, Figure 10's
	// "Symmetry only") or "v3" (sorted delta+varint blocks, written as
	// format version 3). Empty selects snb. The header records the name
	// only when it was set or is v3.
	Codec string
	// Degrees writes the degree file alongside the graph.
	Degrees bool
	// FS routes the converter's file writes; nil selects the real
	// filesystem. The fault-injection harness uses it to crash or fail
	// conversions at arbitrary points.
	FS faultfs.FS
}

// DefaultConvertOptions returns the paper's configuration.
func DefaultConvertOptions() ConvertOptions {
	return ConvertOptions{TileBits: 16, GroupQ: 256, Symmetry: true, Degrees: true}
}

// ExternalConvertOptions adds ConvertExternal's staging budget to
// ConvertOptions.
type ExternalConvertOptions struct {
	ConvertOptions
	// MemoryBudget bounds the staging buffer. Tiles are grouped into
	// buckets of at most this many staged bytes; staging that needs more
	// than one bucket spills to files beside the output. Defaults to
	// 256 MiB.
	MemoryBudget int64
}

// edgeSource is a graph's n edges, which goroutines may read
// concurrently: read streams edges [lo, hi) to fn in consecutive batches,
// the same edges on every call, and fails on an edge outside the vertex
// space (checkEdges) before passing it on.
type edgeSource struct {
	n    int64
	read func(lo, hi int64, fn func(batch []graph.Edge)) error
}

// Convert writes el in tile format under dir with the given base name and
// returns the opened Graph. It runs the conversion pipeline over the
// in-memory edges with no staging budget, so it never spills.
func Convert(el *graph.EdgeList, dir, name string, opts ConvertOptions) (*Graph, error) {
	edges := edgeSource{n: int64(len(el.Edges)), read: func(lo, hi int64, fn func([]graph.Edge)) error {
		if err := checkEdges(el.Edges[lo:hi], el.NumVertices); err != nil {
			return err
		}
		fn(el.Edges[lo:hi])
		return nil
	}}
	return convert(edges, el.NumVertices, el.Directed, dir, name, opts, math.MaxInt64)
}

// ConvertExternal converts the binary edge-list file at edgePath (the
// 8-byte tuples of graph.WriteEdgeList) without holding its edges in
// memory — the form of the conversion for inputs larger than RAM, like
// the paper's terabyte Kronecker files. numVertices and directed describe
// the input, which has no header. Staging that fits in opts.MemoryBudget
// is scattered in memory; larger staging spills.
func ConvertExternal(edgePath string, numVertices uint32, directed bool,
	dir, name string, opts ExternalConvertOptions) (*Graph, error) {
	budget := opts.MemoryBudget
	if budget <= 0 {
		budget = 256 << 20
	}
	f, err := os.Open(edgePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	edges, err := fileEdges(f, numVertices)
	if err != nil {
		return nil, err
	}
	return convert(edges, numVertices, directed, dir, name, opts.ConvertOptions, budget)
}

// bucket is a contiguous disk-ordered tile range [lo, hi) whose staged
// tuples are scattered in memory together.
type bucket struct {
	lo, hi int
	bytes  int64
}

// convert is the two-pass conversion of §IV-B, run by workers goroutines
// that each own one contiguous range of the input. Pass one counts each
// worker's tuples per tile (and degrees); an exclusive prefix sum over
// (tile, worker) then gives every worker its own first slot in every
// tile, so tiles hold their tuples in input order at any worker count.
// The tiles are cut into buckets whose staging fits in budget. Pass two
// streams the edges again: with one bucket each worker scatters its
// tuples straight into their slots of the staging buffer; with more each
// writes (tile, tuple) records into its region of every bucket's spill
// file, and each bucket is scattered the same way as it is read back.
// Each scattered bucket is encoded and checksummed by the workers and
// appended to the tiles file in disk order (tileWriter).
//
// Zero vertices are rejected; a zero TileBits or GroupQ takes the paper's
// value (see ConvertOptions).
func convert(edges edgeSource, numVertices uint32, directed bool,
	dir, name string, opts ConvertOptions, budget int64) (*Graph, error) {
	if opts.TileBits == 0 {
		opts.TileBits = 16
	}
	if opts.GroupQ == 0 {
		opts.GroupQ = 256
	}
	codec, err := ParseCodec(opts.Codec)
	if err != nil {
		return nil, err
	}
	half := !directed && opts.Symmetry
	layout, err := grid.New(numVertices, opts.TileBits, opts.GroupQ, half)
	if err != nil {
		return nil, err
	}
	nt := layout.NumTiles()
	tupleBytes := codec.stagedBytes()

	// Every worker past the first counts degrees into a vertex array of
	// its own during pass one; those partials are charged against the
	// budget (pass two's staging is allocated after they are dropped).
	workers := runtime.GOMAXPROCS(0)
	if opts.Degrees {
		workers = int(min(int64(workers), 1+budget/(4*int64(numVertices))))
	}
	ranges := make([]int64, workers+1)
	for w := range ranges {
		ranges[w] = edges.n * int64(w) / int64(workers)
	}
	stored := func(w int, visit func(di int, s, d uint32)) error {
		return edges.read(ranges[w], ranges[w+1], func(batch []graph.Edge) {
			for _, e := range batch {
				layout.EachStored(e.Src, e.Dst, directed, visit)
			}
		})
	}

	// Pass 1: count each worker's tuples per tile, compute degrees.
	// slots[w][i] holds worker w's count for tile i until the prefix sum
	// below turns it into the worker's first slot in the tile.
	slots := make([][]int64, workers+1)
	var degrees []uint32
	partials := make([][]uint32, workers)
	if opts.Degrees {
		for w := range partials {
			partials[w] = make([]uint32, numVertices)
		}
		degrees = partials[0]
	}
	// A stored tuple adds a degree at its source, and at its destination
	// too when the half layout stores one tuple for both directions, so
	// every edge adds one at each endpoint (one for a self loop).
	err = parallel(workers, func(w int) error {
		counts := make([]int64, nt)
		slots[w] = counts
		deg := partials[w]
		return stored(w, func(di int, s, d uint32) {
			counts[di]++
			if deg != nil {
				deg[s]++
				if half && s != d {
					deg[d]++
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	if degrees != nil && workers > 1 {
		// Sums wrap like the sequential count would, so the totals match.
		parallel(workers, func(w int) error {
			lo, hi := len(degrees)*w/workers, len(degrees)*(w+1)/workers
			for _, p := range partials[1:] {
				for v := lo; v < hi; v++ {
					degrees[v] += p[v]
				}
			}
			return nil
		})
	}
	partials = nil
	start := make([]int64, nt+1)
	for i := 0; i < nt; i++ {
		at := start[i]
		for w := 0; w < workers; w++ {
			at, slots[w][i] = at+slots[w][i], at
		}
		start[i+1] = at
	}
	slots[workers] = start[1:]
	numStored := start[nt]

	buckets := []bucket{{}}
	for i := 0; i < nt; i++ {
		n := (start[i+1] - start[i]) * tupleBytes
		if n > budget {
			return nil, fmt.Errorf("tile: tile %d needs %d bytes, above the %d budget", i, n, budget)
		}
		if cur := &buckets[len(buckets)-1]; cur.bytes+n > budget {
			cur.hi = i
			buckets = append(buckets, bucket{lo: i})
		}
		buckets[len(buckets)-1].bytes += n
	}
	buckets[len(buckets)-1].hi = nt

	fsys := faultfs.Default(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A conversion killed midway leaves its spill files and section
	// staging files behind; sweep this graph's before writing new ones.
	if _, err := fsutil.RemoveTemps(fsys, dir, name+"."); err != nil {
		return nil, err
	}
	base := BasePath(dir, name)

	// Pass 2: stage every tuple, in memory or in spill files.
	st := &staging{codec: codec, bits: opts.TileBits}
	var spills []faultfs.File
	spilled := len(buckets) > 1
	if spilled {
		spills, err = spill(fsys, base, stored, layout, buckets, codec, slots)
		defer func() {
			for _, f := range spills {
				f.Close()
				fsys.Remove(f.Name())
			}
		}()
		if err != nil {
			return nil, err
		}
	} else {
		st.alloc(numStored)
		err := parallel(workers, func(w int) error {
			next := slots[w]
			return stored(w, func(di int, s, d uint32) {
				st.put(next[di], s, d)
				next[di]++
			})
		})
		if err != nil {
			return nil, err
		}
	}

	// Encode each bucket and append it to the tiles file. The output is
	// staged in a temporary file and renamed into place only once fully
	// written and fsynced, so a crash mid-write leaves no torn tiles file;
	// per-tile CRC32C checksums and the whole-file digest are computed
	// from the in-memory buckets as they are written, costing no extra
	// read pass.
	out, err := fsutil.CreateFS(fsys, tilesPath(base), 0o644)
	if err != nil {
		return nil, err
	}
	defer out.Abort()
	tw := newTileWriter(bufio.NewWriterSize(out.File(), 1<<20), codec, opts.TileBits, nt, workers)
	for bi, b := range buckets {
		first := start[b.lo]
		if spilled {
			st.alloc(start[b.hi] - first)
			if err := unspillBucket(spills[bi], st, b, first, slots, codec); err != nil {
				return nil, err
			}
		}
		if err := tw.writeBucket(st, b, first, start); err != nil {
			return nil, err
		}
	}
	if err := tw.w.Flush(); err != nil {
		return nil, err
	}
	if err := out.Commit(); err != nil {
		return nil, err
	}

	m := &Meta{
		Magic: Magic, Version: codec.FormatVersion(), Name: name,
		NumVertices: numVertices,
		NumStored:   numStored,
		NumOriginal: edges.n,
		TileBits:    opts.TileBits,
		GroupQ:      layout.Q,
		Directed:    directed,
		Half:        half,
		SNB:         codec.SNB(),
	}
	if codec == CodecV3 || opts.Codec != "" {
		m.Codec = codec.String()
	}
	// All sections are written crash-safely (tmp + fsync + rename), the
	// meta header last: a crash at any point leaves either no meta (graph
	// absent) or a meta whose manifest matches fully written sections.
	var degData []byte
	if degrees != nil {
		if t, err := EncodeDegrees(degrees); err == nil {
			m.DegreeFormat = "compact"
			degData = encodeDegreeFile(t)
		} else if err == ErrDegreeOverflow {
			m.DegreeFormat = "plain"
			degData = encodePlainDegreeFile(degrees)
		} else {
			return nil, err
		}
		if err := fsutil.WriteFileFS(fsys, degPath(base), degData, 0o644); err != nil {
			return nil, err
		}
	}
	startData := encodeStart(start)
	tilesBytes := numStored * tupleBytes
	if codec == CodecV3 {
		startData = encodeStartV3(start, tw.byteOff)
		tilesBytes = tw.byteOff[nt]
	}
	if err := fsutil.WriteFileFS(fsys, startPath(base), startData, 0o644); err != nil {
		return nil, err
	}
	crcData := encodeTileCRCs(tw.crcs)
	if err := fsutil.WriteFileFS(fsys, crcPath(base), crcData, 0o644); err != nil {
		return nil, err
	}
	m.Manifest = &Manifest{
		Start:   sumBytes(startData),
		Tiles:   SectionSum{Bytes: tilesBytes, CRC32C: tw.hash.Sum32()},
		TileCRC: sumBytes(crcData),
	}
	if degData != nil {
		s := sumBytes(degData)
		m.Manifest.Deg = &s
	}
	// Meta last: the commit point of the conversion. A crash right here
	// leaves every section written but no meta — the graph simply does
	// not exist yet, which recovery treats as "conversion never happened".
	if err := fsys.CrashPoint("tile.convert.before-meta"); err != nil {
		return nil, err
	}
	if err := writeMeta(fsys, base, m); err != nil {
		return nil, err
	}
	return Open(base)
}

// parallel runs fn(0), ..., fn(n-1) on n goroutines and returns the
// error of the lowest-numbered worker that failed.
func parallel(n int, fn func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stagedBytes is the size of one staged tuple: the encoded tuple of a
// fixed-width codec, or v3's 4-byte packed sort key (a v3 tile is
// block-encoded once all its tuples are staged).
func (c Codec) stagedBytes() int64 {
	if c == CodecV3 {
		return 4
	}
	return c.TupleBytes()
}

// stage writes tuple (s, d) of a 2^bits-wide tile into buf in its staged
// form.
func (c Codec) stage(buf []byte, s, d uint32, bits uint) {
	mask := uint32(1)<<bits - 1
	switch c {
	case CodecSNB:
		binary.LittleEndian.PutUint32(buf, s&mask|(d&mask)<<16)
	case CodecV3:
		binary.LittleEndian.PutUint32(buf, V3Key(s&mask, d&mask, bits))
	default:
		binary.LittleEndian.PutUint64(buf, uint64(s)|uint64(d)<<32)
	}
}

// staging holds a bucket's tuples in disk order, in their staged form:
// the encoded tuples of a fixed-width codec in data, or v3's sort keys in
// keys (a v3 tile is block-encoded once all its tuples are staged).
type staging struct {
	codec Codec
	bits  uint
	data  []byte
	keys  []uint32
}

// alloc sizes the staging for n tuples, reusing the buffer when it is
// large enough; every slot is overwritten before it is read.
func (st *staging) alloc(n int64) {
	if st.codec == CodecV3 {
		if int64(cap(st.keys)) < n {
			st.keys = make([]uint32, n)
		}
		st.keys = st.keys[:n]
		return
	}
	n *= st.codec.TupleBytes()
	if int64(cap(st.data)) < n {
		st.data = make([]byte, n)
	}
	st.data = st.data[:n]
}

// put stages tuple (s, d) in slot: Codec.stage, small enough to inline
// into the scatter loop.
func (st *staging) put(slot int64, s, d uint32) {
	mask := uint32(1)<<st.bits - 1
	switch st.codec {
	case CodecV3:
		st.keys[slot] = V3Key(s&mask, d&mask, st.bits)
	case CodecSNB:
		binary.LittleEndian.PutUint32(st.data[slot*SNBTupleBytes:], s&mask|(d&mask)<<16)
	default:
		binary.LittleEndian.PutUint64(st.data[slot*RawTupleBytes:], uint64(s)|uint64(d)<<32)
	}
}

// set stores an already staged tuple, as a spill record carries it, in
// slot.
func (st *staging) set(slot int64, tuple []byte) {
	if st.codec == CodecV3 {
		st.keys[slot] = binary.LittleEndian.Uint32(tuple)
		return
	}
	copy(st.data[slot*int64(len(tuple)):], tuple)
}

// EncodeTuples encodes the tuples (src[i], dst[i]) of one tile 2^bits wide,
// full vertex IDs, in codec c, the way the converter writes a tile: in the
// given order for a fixed-width codec, sorted into blocks for v3.
func EncodeTuples(c Codec, bits uint, src, dst []uint32) []byte {
	st := staging{codec: c, bits: bits}
	st.alloc(int64(len(src)))
	for i, s := range src {
		st.put(int64(i), s, dst[i])
	}
	if c == CodecV3 {
		return AppendV3(nil, st.keys, bits)
	}
	return st.data
}

// spill streams the edges once more and writes each stored tuple as a
// (disk index, staged tuple) record into its bucket's spill file,
// <base>.spill<N>.tmp: the ".tmp" makes it staging litter that
// fsutil.RemoveTemps sweeps if the conversion dies. A bucket's file holds
// one region per worker, in worker order, sized by the pass-one counts
// (region); each worker writes its records into its own regions, so the
// file holds the records in input order at any worker count. The 64 KiB
// of write buffer per bucket is split among the workers. spill returns
// the files it created, also on error; the caller closes and removes
// them.
func spill(fsys faultfs.FS, base string, stored func(w int, visit func(di int, s, d uint32)) error,
	layout *grid.Layout, buckets []bucket, codec Codec, slots [][]int64) ([]faultfs.File, error) {
	var files []faultfs.File
	bucketOf := make([]int, layout.NumTiles())
	for bi, b := range buckets {
		f, err := fsys.OpenFile(fmt.Sprintf("%s.spill%d.tmp", base, bi), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return files, err
		}
		files = append(files, f)
		for i := b.lo; i < b.hi; i++ {
			bucketOf[i] = bi
		}
	}
	workers := len(slots) - 1
	recBytes := 4 + codec.stagedBytes()
	bufBytes := max(1, (64<<10)/int64(workers)/recBytes) * recBytes
	err := parallel(workers, func(w int) error {
		regions := make([]regionWriter, len(buckets))
		for bi, b := range buckets {
			at, _ := region(slots, w, b)
			regions[bi] = regionWriter{f: files[bi], off: at * recBytes, buf: make([]byte, 0, bufBytes)}
		}
		var rec [4 + RawTupleBytes]byte
		err := stored(w, func(di int, s, d uint32) {
			binary.LittleEndian.PutUint32(rec[:4], uint32(di))
			codec.stage(rec[4:], s, d, layout.TileBits)
			regions[bucketOf[di]].write(rec[:recBytes])
		})
		if err != nil {
			return err
		}
		for i := range regions {
			if err := regions[i].flush(); err != nil {
				return err
			}
		}
		return nil
	})
	return files, err
}

// region locates worker w's records in bucket b's spill file: the index
// of its first record and its record count. slots is the pass-one prefix
// sum, so slots[w][i]-slots[0][i] is the number of tile i's tuples that
// come before worker w's.
func region(slots [][]int64, w int, b bucket) (first, n int64) {
	for i := b.lo; i < b.hi; i++ {
		first += slots[w][i] - slots[0][i]
		n += slots[w+1][i] - slots[w][i]
	}
	return first, n
}

// regionWriter buffers appends to a region of a file that starts at off.
// Buffered writes cannot fail until flush, which returns the first error.
type regionWriter struct {
	f   faultfs.File
	off int64
	buf []byte
	err error
}

func (r *regionWriter) write(p []byte) {
	if len(r.buf)+len(p) > cap(r.buf) {
		r.flush()
	}
	r.buf = append(r.buf, p...)
}

func (r *regionWriter) flush() error {
	if r.err == nil && len(r.buf) > 0 {
		_, r.err = r.f.WriteAt(r.buf, r.off)
		r.off += int64(len(r.buf))
	}
	r.buf = r.buf[:0]
	return r.err
}

// unspillBucket reads bucket b's spill file f back into st, whose first
// slot is tuple number first: every worker scatters its own region with
// cursors of its own, through 1 MiB of read buffer split among them.
func unspillBucket(f faultfs.File, st *staging, b bucket, first int64, slots [][]int64, codec Codec) error {
	workers := len(slots) - 1
	recBytes := 4 + codec.stagedBytes()
	return parallel(workers, func(w int) error {
		at, n := region(slots, w, b)
		r := bufio.NewReaderSize(io.NewSectionReader(f, at*recBytes, n*recBytes), max(4096, (1<<20)/workers))
		next := slices.Clone(slots[w][b.lo:b.hi])
		return unspill(r, f.Name(), st, b.lo, next, slots[w+1][b.lo:b.hi], first, recBytes)
	})
}

// unspill scatters the spill records read from r into st: the record of a
// tuple of tile lo+i goes to slot next[i]-first, which it then advances.
// A record for a tile outside [lo, lo+len(next)), one that would pass its
// tile's end[i], or a stream that ends before every cursor reaches its
// end means the spill file of name is corrupt.
func unspill(r io.Reader, name string, st *staging, lo int, next, end []int64, first, recBytes int64) error {
	var rec [4 + RawTupleBytes]byte
	for {
		if _, err := io.ReadFull(r, rec[:recBytes]); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("tile: corrupt spill file %s: %w", name, err)
		}
		i := int64(binary.LittleEndian.Uint32(rec[:4])) - int64(lo)
		if i < 0 || i >= int64(len(next)) || next[i] >= end[i] {
			return fmt.Errorf("tile: corrupt spill file %s: unexpected record for tile %d", name, i+int64(lo))
		}
		st.set(next[i]-first, rec[4:recBytes])
		next[i]++
	}
	for i := range next {
		if next[i] != end[i] {
			return fmt.Errorf("tile: corrupt spill file %s: tile %d is %d tuples short", name, lo+i, end[i]-next[i])
		}
	}
	return nil
}

// runTuples is the tuple count past which a tileWriter run takes no more
// tiles.
const runTuples = 1 << 15

// tileWriter encodes staged buckets on its workers and appends them to w
// in disk order. Consecutive tiles are grouped into runs of at most
// runTuples tuples (a larger tile is a run by itself); a worker encodes a
// run and checksums each of its tiles, and the caller's goroutine writes
// the runs in order. At most 2×workers runs are in flight.
type tileWriter struct {
	w       *bufio.Writer
	codec   Codec
	bits    uint
	workers int
	hash    hash.Hash32 // of the whole tiles file
	crcs    []uint32    // per tile, disk order
	byteOff []int64     // v3: per-tile byte offset prefix sum
	free    []*tileRun
}

// tileRun is a run of tiles [lo, hi) and its bytes as written: a slice of
// the staging for fixed-width codecs, enc for v3.
type tileRun struct {
	lo, hi int
	data   []byte
	enc    []byte
	done   chan struct{}
}

func newTileWriter(w *bufio.Writer, codec Codec, bits uint, nt, workers int) *tileWriter {
	tw := &tileWriter{w: w, codec: codec, bits: bits, workers: workers,
		hash: crc32.New(castagnoli), crcs: make([]uint32, nt)}
	if codec == CodecV3 {
		tw.byteOff = make([]int64, nt+1)
	}
	for i := 0; i < 2*workers; i++ {
		tw.free = append(tw.free, &tileRun{done: make(chan struct{}, 1)})
	}
	return tw
}

// writeBucket encodes the tiles of bucket b from st, whose first slot is
// tuple number first (start is the tiles' tuple prefix sum), and writes
// them.
func (tw *tileWriter) writeBucket(st *staging, b bucket, first int64, start []int64) error {
	// Room for every run in flight, so handing one out never blocks.
	jobs := make(chan *tileRun, len(tw.free))
	var wg sync.WaitGroup
	wg.Add(tw.workers)
	for w := 0; w < tw.workers; w++ {
		go func() {
			defer wg.Done()
			for r := range jobs {
				tw.encode(r, st, first, start)
				r.done <- struct{}{}
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)
	var pending []*tileRun
	for lo := b.lo; lo < b.hi || len(pending) > 0; {
		if lo < b.hi && len(tw.free) > 0 {
			hi := lo + 1
			for hi < b.hi && start[hi+1]-start[lo] <= runTuples {
				hi++
			}
			r := tw.free[len(tw.free)-1]
			tw.free = tw.free[:len(tw.free)-1]
			r.lo, r.hi, lo = lo, hi, hi
			pending = append(pending, r)
			jobs <- r
			continue
		}
		r := pending[0]
		pending = pending[1:]
		<-r.done
		if err := tw.emit(r); err != nil {
			return err
		}
		tw.free = append(tw.free, r)
	}
	return nil
}

// encode fills r.data and the checksums of r's tiles; for v3 it sorts and
// block-encodes each tile and records its encoded length in byteOff,
// which emit turns into an offset.
func (tw *tileWriter) encode(r *tileRun, st *staging, first int64, start []int64) {
	if tw.codec != CodecV3 {
		tb := tw.codec.TupleBytes()
		for i := r.lo; i < r.hi; i++ {
			tw.crcs[i] = Checksum(st.data[(start[i]-first)*tb : (start[i+1]-first)*tb])
		}
		r.data = st.data[(start[r.lo]-first)*tb : (start[r.hi]-first)*tb]
		return
	}
	r.enc = r.enc[:0]
	for i := r.lo; i < r.hi; i++ {
		at := len(r.enc)
		r.enc = AppendV3(r.enc, st.keys[start[i]-first:start[i+1]-first], tw.bits)
		tw.crcs[i] = Checksum(r.enc[at:])
		tw.byteOff[i+1] = int64(len(r.enc) - at)
	}
	r.data = r.enc
}

// emit appends encoded run r to the tiles file.
func (tw *tileWriter) emit(r *tileRun) error {
	tw.hash.Write(r.data)
	if _, err := tw.w.Write(r.data); err != nil {
		return err
	}
	for i := r.lo; tw.byteOff != nil && i < r.hi; i++ {
		tw.byteOff[i+1] += tw.byteOff[i]
	}
	return nil
}

// edgeReadBytes is the read buffer of one goroutine streaming an edge
// file.
const edgeReadBytes = 256 << 10

// fileEdges is the binary edge list in f as an edgeSource whose readers
// share f through ReadAt.
func fileEdges(f *os.File, numVertices uint32) (edgeSource, error) {
	info, err := f.Stat()
	if err != nil {
		return edgeSource{}, err
	}
	if info.Size()%graph.EdgeTupleBytes != 0 {
		return edgeSource{}, fmt.Errorf("tile: %s ends in a partial edge", f.Name())
	}
	read := func(lo, hi int64, fn func(batch []graph.Edge)) error {
		buf := make([]byte, edgeReadBytes)
		edges := make([]graph.Edge, edgeReadBytes/graph.EdgeTupleBytes)
		for lo < hi {
			batch := edges[:min(hi-lo, int64(len(edges)))]
			raw := buf[:len(batch)*graph.EdgeTupleBytes]
			if _, err := f.ReadAt(raw, lo*graph.EdgeTupleBytes); err != nil {
				return fmt.Errorf("tile: reading %s: %w", f.Name(), err)
			}
			for i := range batch {
				batch[i] = graph.Edge{
					Src: binary.LittleEndian.Uint32(raw[i*graph.EdgeTupleBytes:]),
					Dst: binary.LittleEndian.Uint32(raw[i*graph.EdgeTupleBytes+4:]),
				}
			}
			if err := checkEdges(batch, numVertices); err != nil {
				return err
			}
			fn(batch)
			lo += int64(len(batch))
		}
		return nil
	}
	return edgeSource{n: info.Size() / graph.EdgeTupleBytes, read: read}, nil
}

// checkEdges rejects a batch holding an edge outside the vertex space.
func checkEdges(batch []graph.Edge, numVertices uint32) error {
	for _, e := range batch {
		if e.Src >= numVertices || e.Dst >= numVertices {
			return fmt.Errorf("tile: edge (%d,%d) outside vertex space %d", e.Src, e.Dst, numVertices)
		}
	}
	return nil
}
