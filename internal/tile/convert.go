package tile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

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

// edgeSource streams a graph's edges to fn in consecutive batches, the
// same edges in the same order on every call. The converter calls it once
// per pass.
type edgeSource func(fn func(batch []graph.Edge)) error

// eachStored runs one pass over the edges, visiting every stored tuple
// they become (see grid.Layout.EachStored).
func (edges edgeSource) eachStored(layout *grid.Layout, directed bool, visit func(di int, s, d uint32)) error {
	return edges(func(batch []graph.Edge) {
		for _, e := range batch {
			layout.EachStored(e.Src, e.Dst, directed, visit)
		}
	})
}

// Convert writes el in tile format under dir with the given base name and
// returns the opened Graph. It runs the conversion pipeline over the
// in-memory edges with no staging budget, so it never spills.
func Convert(el *graph.EdgeList, dir, name string, opts ConvertOptions) (*Graph, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	edges := func(fn func(batch []graph.Edge)) error {
		fn(el.Edges)
		return nil
	}
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
	edges := func(fn func(batch []graph.Edge)) error {
		return streamEdgeFile(edgePath, numVertices, fn)
	}
	return convert(edges, numVertices, directed, dir, name, opts.ConvertOptions, budget)
}

// bucket is a contiguous disk-ordered tile range [lo, hi) whose staged
// tuples are scattered in memory together.
type bucket struct {
	lo, hi int
	bytes  int64
}

// convert is the two-pass conversion of §IV-B. Pass one streams the
// edges to count tuples per tile (the start-edge array) and degrees.
// The tiles are then cut into buckets whose staging fits in budget. Pass
// two streams the edges again: with one bucket it scatters every tuple
// straight into its slot of the staging buffer; with more it appends
// (tile, tuple) records to one spill file per bucket and scatters each
// bucket as it reads the file back. Each scattered bucket is checksummed
// and appended to the tiles file in disk order.
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

	// Pass 1: count tuples per tile, compute degrees.
	counts := make([]int64, nt)
	var degrees []uint32
	if opts.Degrees {
		degrees = make([]uint32, numVertices)
	}
	var original int64
	count := func(di int, _, _ uint32) { counts[di]++ }
	err = edges(func(batch []graph.Edge) {
		original += int64(len(batch))
		for _, e := range batch {
			if degrees != nil {
				degrees[e.Src]++
				if !directed && e.Src != e.Dst {
					degrees[e.Dst]++
				}
			}
			layout.EachStored(e.Src, e.Dst, directed, count)
		}
	})
	if err != nil {
		return nil, err
	}
	start := make([]int64, nt+1)
	for i, c := range counts {
		start[i+1] = start[i] + c
	}
	numStored := start[nt]

	buckets := []bucket{{}}
	for i := 0; i < nt; i++ {
		n := counts[i] * tupleBytes
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
	next := make([]int64, nt)
	copy(next, start)
	var staged []byte
	var spills []faultfs.File
	spilled := len(buckets) > 1
	if spilled {
		spills, err = spill(fsys, base, edges, layout, directed, buckets, codec)
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
		staged = make([]byte, numStored*tupleBytes)
		scatter := func(di int, s, d uint32) {
			codec.stage(staged[next[di]*tupleBytes:], s, d, opts.TileBits)
			next[di]++
		}
		if err := edges.eachStored(layout, directed, scatter); err != nil {
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
	ow := bufio.NewWriterSize(out.File(), 1<<20)
	tilesHash := crc32.New(castagnoli)
	crcs := make([]uint32, nt)
	var byteOff []int64
	var keyScratch []uint32
	var encScratch []byte
	if codec == CodecV3 {
		byteOff = make([]int64, nt+1)
	}
	for bi, b := range buckets {
		buf := staged
		if spilled {
			buf = make([]byte, b.bytes)
			if err := unspill(spills[bi], buf, next, start[b.lo], tupleBytes); err != nil {
				return nil, err
			}
		}
		tileBytes := func(i int) []byte {
			return buf[(start[i]-start[b.lo])*tupleBytes : (start[i+1]-start[b.lo])*tupleBytes]
		}
		if codec == CodecV3 {
			// Per tile: decode the scattered sort keys, sort, and emit the
			// block encoding; CRCs, the whole-file hash and the byte-offset
			// index all come from the encoded bytes.
			for i := b.lo; i < b.hi; i++ {
				raw := tileBytes(i)
				keyScratch = keyScratch[:0]
				for p := 0; p < len(raw); p += 4 {
					keyScratch = append(keyScratch, binary.LittleEndian.Uint32(raw[p:]))
				}
				encScratch = AppendV3(encScratch[:0], keyScratch, opts.TileBits)
				crcs[i] = Checksum(encScratch)
				byteOff[i+1] = byteOff[i] + int64(len(encScratch))
				tilesHash.Write(encScratch)
				if _, err := ow.Write(encScratch); err != nil {
					return nil, err
				}
			}
			continue
		}
		for i := b.lo; i < b.hi; i++ {
			crcs[i] = Checksum(tileBytes(i))
		}
		tilesHash.Write(buf)
		if _, err := ow.Write(buf); err != nil {
			return nil, err
		}
	}
	if err := ow.Flush(); err != nil {
		return nil, err
	}
	if err := out.Commit(); err != nil {
		return nil, err
	}

	m := &Meta{
		Magic: Magic, Version: codec.FormatVersion(), Name: name,
		NumVertices: numVertices,
		NumStored:   numStored,
		NumOriginal: original,
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
		startData = encodeStartV3(start, byteOff)
		tilesBytes = byteOff[nt]
	}
	if err := fsutil.WriteFileFS(fsys, startPath(base), startData, 0o644); err != nil {
		return nil, err
	}
	crcData := encodeTileCRCs(crcs)
	if err := fsutil.WriteFileFS(fsys, crcPath(base), crcData, 0o644); err != nil {
		return nil, err
	}
	m.Manifest = &Manifest{
		Start:   sumBytes(startData),
		Tiles:   SectionSum{Bytes: tilesBytes, CRC32C: tilesHash.Sum32()},
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
		PutSNB(buf, uint16(s&mask), uint16(d&mask))
	case CodecV3:
		binary.LittleEndian.PutUint32(buf, V3Key(s&mask, d&mask, bits))
	default:
		PutRaw(buf, s, d)
	}
}

// spill streams the edges once, appending each stored tuple as a
// (disk index, staged tuple) record to its bucket's spill file,
// <base>.spill<N>.tmp: the ".tmp" makes it staging litter that
// fsutil.RemoveTemps sweeps if the conversion dies. It returns the files
// it created, also on error; the caller closes and removes them.
func spill(fsys faultfs.FS, base string, edges edgeSource, layout *grid.Layout, directed bool,
	buckets []bucket, codec Codec) ([]faultfs.File, error) {
	var files []faultfs.File
	writers := make([]*bufio.Writer, len(buckets))
	bucketOf := make([]int, layout.NumTiles())
	for bi, b := range buckets {
		f, err := fsys.OpenFile(fmt.Sprintf("%s.spill%d.tmp", base, bi), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return files, err
		}
		files = append(files, f)
		writers[bi] = bufio.NewWriterSize(f, 1<<16)
		for i := b.lo; i < b.hi; i++ {
			bucketOf[i] = bi
		}
	}
	var rec [4 + RawTupleBytes]byte
	recBytes := 4 + codec.stagedBytes()
	record := func(di int, s, d uint32) {
		binary.LittleEndian.PutUint32(rec[:4], uint32(di))
		codec.stage(rec[4:], s, d, layout.TileBits)
		// Buffered writes cannot fail until flush; collect then.
		writers[bucketOf[di]].Write(rec[:recBytes])
	}
	if err := edges.eachStored(layout, directed, record); err != nil {
		return files, err
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return files, err
		}
	}
	return files, nil
}

// unspill scatters the records of spill file f into buf, whose first
// slot is tuple number first; next holds each tile's next free slot.
func unspill(f faultfs.File, buf []byte, next []int64, first, tupleBytes int64) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var rec [4 + RawTupleBytes]byte
	recBytes := 4 + tupleBytes
	for {
		if _, err := io.ReadFull(r, rec[:recBytes]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("tile: corrupt spill file %s: %w", f.Name(), err)
		}
		di := binary.LittleEndian.Uint32(rec[:4])
		at := (next[di] - first) * tupleBytes
		next[di]++
		copy(buf[at:at+tupleBytes], rec[4:recBytes])
	}
}

// streamEdgeFile reads the binary edge list at path in batches,
// validating endpoints against the vertex space.
func streamEdgeFile(path string, numVertices uint32, fn func(batch []graph.Edge)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	edges := make([]graph.Edge, len(buf)/graph.EdgeTupleBytes)
	for {
		n, err := io.ReadFull(f, buf)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			if n%graph.EdgeTupleBytes != 0 {
				return fmt.Errorf("tile: %s ends in a partial edge", path)
			}
		case err != nil:
			return fmt.Errorf("tile: reading %s: %w", path, err)
		}
		batch := edges[:n/graph.EdgeTupleBytes]
		for i := range batch {
			s := binary.LittleEndian.Uint32(buf[i*graph.EdgeTupleBytes:])
			d := binary.LittleEndian.Uint32(buf[i*graph.EdgeTupleBytes+4:])
			if s >= numVertices || d >= numVertices {
				return fmt.Errorf("tile: edge (%d,%d) outside vertex space %d", s, d, numVertices)
			}
			batch[i] = graph.Edge{Src: s, Dst: d}
		}
		fn(batch)
		if err != nil {
			return nil
		}
	}
}
