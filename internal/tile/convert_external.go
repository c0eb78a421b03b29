package tile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/grid"
)

// ExternalConvertOptions extends ConvertOptions for the out-of-core
// converter.
type ExternalConvertOptions struct {
	ConvertOptions
	// MemoryBudget bounds the staging buffer. Tiles are grouped into
	// buckets of at most this many bytes, each scattered in memory and
	// appended to the output sequentially. Defaults to 256 MB.
	MemoryBudget int64
	// TempDir holds the intermediate bucket files (defaults to the output
	// directory).
	TempDir string
}

// ConvertExternal converts a binary edge-list file to the tile format
// without materializing the edges in memory — the out-of-core variant of
// the two-pass conversion of §IV-B, for inputs larger than RAM (the
// paper's terabyte-scale Kronecker files). Pass one streams the input to
// build the start-edge array and degrees; pass two streams it again,
// appending encoded tuples to per-bucket spill files; each bucket (a
// contiguous range of disk-ordered tiles that fits in the memory budget)
// is then scattered in memory and written out sequentially.
func ConvertExternal(edgePath string, numVertices uint32, directed bool,
	dir, name string, opts ExternalConvertOptions) (*Graph, error) {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 256 << 20
	}
	if opts.TileBits == 0 {
		opts.TileBits = 16
	}
	if opts.GroupQ == 0 {
		opts.GroupQ = 256
	}
	if numVertices == 0 {
		return nil, fmt.Errorf("tile: zero vertices")
	}
	half := !directed && opts.Symmetry
	layout, err := grid.New(numVertices, opts.TileBits, opts.GroupQ, half)
	if err != nil {
		return nil, err
	}
	nt := layout.NumTiles()
	codec, err := opts.codec()
	if err != nil {
		return nil, err
	}
	// Per-tuple staging size: encoded bytes for the fixed-width codecs, a
	// 4-byte packed sort key for v3 (the block encoding happens per tile
	// at scatter time).
	tupleBytes := codec.TupleBytes()
	if codec == CodecV3 {
		tupleBytes = 4
	}

	// Pass 1: count tuples per tile, compute degrees.
	counts := make([]int64, nt)
	var degrees []uint32
	if opts.Degrees {
		degrees = make([]uint32, numVertices)
	}
	var original int64
	err = streamEdgeFile(edgePath, numVertices, func(s, d uint32) {
		original++
		if degrees != nil {
			degrees[s]++
			if !directed && s != d {
				degrees[d]++
			}
		}
		eachStoredDir(layout, directed, s, d, func(di int, _, _ uint32) {
			counts[di]++
		})
	})
	if err != nil {
		return nil, err
	}
	start := make([]int64, nt+1)
	for i, n := range counts {
		start[i+1] = start[i] + n
	}
	numStored := start[nt]

	// Bucketize: contiguous disk-ordered tile ranges under the budget.
	type bucket struct {
		loTile, hiTile int // disk-index range [lo, hi)
		bytes          int64
	}
	var buckets []bucket
	{
		cur := bucket{loTile: 0}
		for i := 0; i < nt; i++ {
			n := counts[i] * tupleBytes
			if n > opts.MemoryBudget {
				return nil, fmt.Errorf("tile: tile %d needs %d bytes, above the %d budget",
					i, n, opts.MemoryBudget)
			}
			if cur.bytes+n > opts.MemoryBudget {
				cur.hiTile = i
				buckets = append(buckets, cur)
				cur = bucket{loTile: i}
			}
			cur.bytes += n
		}
		cur.hiTile = nt
		buckets = append(buckets, cur)
	}
	bucketOf := make([]int, nt)
	for bi, b := range buckets {
		for i := b.loTile; i < b.hiTile; i++ {
			bucketOf[i] = bi
		}
	}

	// Pass 2: spill (diskIdx, tuple) records per bucket.
	fsys := faultfs.Default(opts.FS)
	tempDir := opts.TempDir
	if tempDir == "" {
		tempDir = dir
	}
	if err := fsys.MkdirAll(tempDir, 0o755); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp(tempDir, "gstore-spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	spills := make([]*bufio.Writer, len(buckets))
	spillFiles := make([]faultfs.File, len(buckets))
	for i := range spills {
		f, err := fsys.OpenFile(filepath.Join(spillDir, fmt.Sprintf("b%d", i)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		spillFiles[i] = f
		spills[i] = bufio.NewWriterSize(f, 1<<16)
	}
	mask := layout.TileWidth() - 1
	recBytes := 4 + tupleBytes
	var rec [4 + RawTupleBytes]byte
	err = streamEdgeFile(edgePath, numVertices, func(s, d uint32) {
		eachStoredDir(layout, directed, s, d, func(di int, ts, td uint32) {
			binary.LittleEndian.PutUint32(rec[0:4], uint32(di))
			switch codec {
			case CodecSNB:
				PutSNB(rec[4:], uint16(ts&mask), uint16(td&mask))
			case CodecV3:
				binary.LittleEndian.PutUint32(rec[4:], V3Key(ts&mask, td&mask, opts.TileBits))
			default:
				PutRaw(rec[4:], ts, td)
			}
			// Buffered writes cannot fail until flush; collect then.
			spills[bucketOf[di]].Write(rec[:recBytes])
		})
	})
	if err != nil {
		return nil, err
	}
	for i, w := range spills {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		if err := spillFiles[i].Close(); err != nil {
			return nil, err
		}
	}

	// Scatter each bucket in memory and append to the tiles file. The
	// output is staged in a temporary file and renamed into place only
	// once fully written and fsynced, so a crash mid-scatter leaves no
	// torn tiles file; per-tile CRC32C checksums and the whole-file
	// digest are computed from the same in-memory buckets as they are
	// written, costing no extra read pass.
	base := BasePath(dir, name)
	out, err := fsutil.CreateFS(fsys, tilesPath(base), 0o644)
	if err != nil {
		return nil, err
	}
	defer out.Abort()
	ow := bufio.NewWriterSize(out.File(), 1<<20)
	tilesHash := crc32.New(castagnoli)
	crcs := make([]uint32, nt)
	next := make([]int64, nt)
	var byteOff []int64
	var keyScratch []uint32
	var encScratch []byte
	if codec == CodecV3 {
		byteOff = make([]int64, nt+1)
	}
	for bi, b := range buckets {
		buf := make([]byte, b.bytes)
		baseTuples := start[b.loTile]
		for i := b.loTile; i < b.hiTile; i++ {
			next[i] = start[i]
		}
		f, err := fsys.OpenFile(filepath.Join(spillDir, fmt.Sprintf("b%d", bi)), os.O_RDONLY, 0)
		if err != nil {
			return nil, err
		}
		r := bufio.NewReaderSize(f, 1<<20)
		for {
			if _, err := io.ReadFull(r, rec[:recBytes]); err != nil {
				if err == io.EOF {
					break
				}
				f.Close()
				return nil, fmt.Errorf("tile: corrupt spill file %d: %w", bi, err)
			}
			di := int(binary.LittleEndian.Uint32(rec[0:4]))
			at := (next[di] - baseTuples) * tupleBytes
			next[di]++
			copy(buf[at:at+tupleBytes], rec[4:4+tupleBytes])
		}
		f.Close()
		if codec == CodecV3 {
			// Per tile: decode the scattered sort keys, sort, and emit the
			// block encoding; CRCs, the whole-file hash and the byte-offset
			// index all come from the encoded bytes.
			for i := b.loTile; i < b.hiTile; i++ {
				raw := buf[(start[i]-baseTuples)*tupleBytes : (start[i+1]-baseTuples)*tupleBytes]
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
		for i := b.loTile; i < b.hiTile; i++ {
			crcs[i] = Checksum(buf[(start[i]-baseTuples)*tupleBytes : (start[i+1]-baseTuples)*tupleBytes])
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
	// Meta last: the commit point of the conversion.
	if err := fsys.CrashPoint("tile.convert.before-meta"); err != nil {
		return nil, err
	}
	if err := writeMeta(fsys, base, m); err != nil {
		return nil, err
	}
	return Open(base)
}

// eachStoredDir maps one input edge to the stored tuple(s), mirroring
// forEachStored for a single edge.
func eachStoredDir(layout *grid.Layout, directed bool, s, d uint32, fn func(di int, ts, td uint32)) {
	ts, td := s, d
	if layout.Half && ts > td {
		ts, td = td, ts
	}
	fn(layout.DiskIndex(layout.TileOf(ts), layout.TileOf(td)), ts, td)
	if !directed && !layout.Half && s != d {
		fn(layout.DiskIndex(layout.TileOf(d), layout.TileOf(s)), d, s)
	}
}

// streamEdgeFile reads a binary edge list, invoking fn per edge, and
// validates endpoints against the vertex space.
func streamEdgeFile(path string, numVertices uint32, fn func(s, d uint32)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var buf [graph.EdgeTupleBytes]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("tile: reading %s: %w", path, err)
		}
		s := binary.LittleEndian.Uint32(buf[0:4])
		d := binary.LittleEndian.Uint32(buf[4:8])
		if s >= numVertices || d >= numVertices {
			return fmt.Errorf("tile: edge (%d,%d) outside vertex space %d", s, d, numVertices)
		}
		fn(s, d)
	}
}
