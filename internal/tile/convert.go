package tile

import (
	"fmt"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/grid"
)

// ConvertOptions controls the conversion of an edge list into the tile
// format. The zero value is not valid; use DefaultConvertOptions.
type ConvertOptions struct {
	// TileBits is the log2 tile width (the paper uses 16; tests use less).
	TileBits uint
	// GroupQ is the physical group width in tiles (§V-A; the paper finds
	// 256 optimal on its hardware).
	GroupQ uint32
	// Symmetry stores only the upper triangle of undirected graphs
	// (§IV-A). Ignored for directed graphs, which always store one
	// direction only. Disabling it reproduces the "Base" and "Symmetry
	// off" ablation configurations of Figure 10.
	Symmetry bool
	// SNB selects the 4-byte smallest-number-of-bits tuples (§IV-B);
	// disabled it writes full 8-byte tuples (Figure 10 "Symmetry only").
	// Ignored when Codec is set.
	SNB bool
	// Codec names the tuple codec explicitly: "snb", "raw" or "v3"
	// (sorted delta+varint blocks, written as format version 3). Empty
	// derives snb/raw from the SNB flag.
	Codec string
	// Degrees writes the degree file alongside the graph.
	Degrees bool
	// FS routes the converter's file writes; nil selects the real
	// filesystem. The fault-injection harness uses it to crash or fail
	// conversions at arbitrary points.
	FS faultfs.FS
}

// codec resolves the Codec/SNB fields into the tuple codec to write.
func (o ConvertOptions) codec() (Codec, error) {
	if o.Codec == "" {
		if o.SNB {
			return CodecSNB, nil
		}
		return CodecRaw, nil
	}
	return ParseCodec(o.Codec)
}

// DefaultConvertOptions returns the paper's configuration.
func DefaultConvertOptions() ConvertOptions {
	return ConvertOptions{TileBits: 16, GroupQ: 256, Symmetry: true, SNB: true, Degrees: true}
}

// MaxConvertBytes caps the in-memory staging buffer of the converter.
// Graphs beyond this would need the external multi-pass converter the
// paper alludes to; at reproduction scale this limit is never hit.
const MaxConvertBytes = int64(1) << 33

// Convert writes el in tile format under dir with the given base name and
// returns an opened Graph. It is the two-pass process of §IV-B: pass one
// counts tuples per tile to build the start-edge array, pass two scatters
// encoded tuples to their slots.
func Convert(el *graph.EdgeList, dir, name string, opts ConvertOptions) (*Graph, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	half := !el.Directed && opts.Symmetry
	layout, err := grid.New(el.NumVertices, opts.TileBits, opts.GroupQ, half)
	if err != nil {
		return nil, err
	}
	nt := layout.NumTiles()

	// Pass 1: count tuples per stored tile.
	counts := make([]int64, nt)
	forEachStored(el, layout, func(di int, src, dst uint32) {
		counts[di]++
	})
	start := make([]int64, nt+1)
	for i, c := range counts {
		start[i+1] = start[i] + c
	}
	numStored := start[nt]

	codec, err := opts.codec()
	if err != nil {
		return nil, err
	}
	tupleBytes := codec.TupleBytes()
	if tupleBytes == 0 {
		tupleBytes = SNBTupleBytes // v3 staging estimate: 4-byte sort keys
	}
	if total := numStored * tupleBytes; total > MaxConvertBytes {
		return nil, fmt.Errorf("tile: graph needs %d staging bytes, above the %d cap", total, MaxConvertBytes)
	}

	// Pass 2: scatter encoded tuples. Fixed-width codecs scatter encoded
	// bytes directly to their slots; v3 scatters packed sort keys into
	// per-tile ranges, then sorts and block-encodes each tile.
	next := make([]int64, nt)
	copy(next, start[:nt])
	mask := layout.TileWidth() - 1
	var data []byte
	var byteOff []int64
	switch codec {
	case CodecV3:
		keys := make([]uint32, numStored)
		forEachStored(el, layout, func(di int, src, dst uint32) {
			keys[next[di]] = V3Key(src&mask, dst&mask, opts.TileBits)
			next[di]++
		})
		byteOff = make([]int64, nt+1)
		for i := 0; i < nt; i++ {
			data = AppendV3(data, keys[start[i]:start[i+1]], opts.TileBits)
			byteOff[i+1] = int64(len(data))
		}
	default:
		data = make([]byte, numStored*tupleBytes)
		forEachStored(el, layout, func(di int, src, dst uint32) {
			p := next[di] * tupleBytes
			next[di]++
			if codec == CodecSNB {
				PutSNB(data[p:], uint16(src&mask), uint16(dst&mask))
			} else {
				PutRaw(data[p:], src, dst)
			}
		})
	}
	m := &Meta{
		Magic: Magic, Version: codec.FormatVersion(), Name: name,
		NumVertices: el.NumVertices,
		NumStored:   numStored,
		NumOriginal: int64(len(el.Edges)),
		TileBits:    opts.TileBits,
		GroupQ:      layout.Q,
		Directed:    el.Directed,
		Half:        half,
		SNB:         codec.SNB(),
	}
	if codec == CodecV3 || opts.Codec != "" {
		m.Codec = codec.String()
	}

	fsys := faultfs.Default(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := BasePath(dir, name)

	// All sections are written crash-safely (tmp + fsync + rename), the
	// meta header last: a crash at any point leaves either no meta (graph
	// absent) or a meta whose manifest matches fully written sections.
	var degData []byte
	if opts.Degrees {
		deg := el.OutDegrees()
		if t, err := EncodeDegrees(deg); err == nil {
			m.DegreeFormat = "compact"
			degData = encodeDegreeFile(t)
		} else if err == ErrDegreeOverflow {
			m.DegreeFormat = "plain"
			degData = encodePlainDegreeFile(deg)
		} else {
			return nil, err
		}
		if err := fsutil.WriteFileFS(fsys, degPath(base), degData, 0o644); err != nil {
			return nil, err
		}
	}
	startData := encodeStart(start)
	if codec == CodecV3 {
		startData = encodeStartV3(start, byteOff)
	}
	if err := fsutil.WriteFileFS(fsys, tilesPath(base), data, 0o644); err != nil {
		return nil, err
	}
	if err := fsutil.WriteFileFS(fsys, startPath(base), startData, 0o644); err != nil {
		return nil, err
	}
	var crcs []uint32
	if codec == CodecV3 {
		crcs = tileChecksumsAt(data, byteOff)
	} else {
		crcs = tileChecksums(data, start, tupleBytes)
	}
	crcData := encodeTileCRCs(crcs)
	if err := fsutil.WriteFileFS(fsys, crcPath(base), crcData, 0o644); err != nil {
		return nil, err
	}
	m.Manifest = &Manifest{
		Start:   sumBytes(startData),
		Tiles:   sumBytes(data),
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

// forEachStored maps every input edge to its stored tile (disk index) and
// the tuple endpoints as stored. Undirected half layouts store the
// canonical direction once; undirected full layouts (ablation) store both
// directions (self loops once), reproducing the traditional duplicated
// representation; directed graphs store out-edges as given.
func forEachStored(el *graph.EdgeList, layout *grid.Layout, fn func(diskIdx int, src, dst uint32)) {
	for _, e := range el.Edges {
		s, d := e.Src, e.Dst
		if layout.Half && s > d {
			s, d = d, s
		}
		di := layout.DiskIndex(layout.TileOf(s), layout.TileOf(d))
		fn(di, s, d)
		if !el.Directed && !layout.Half && s != d {
			dj := layout.DiskIndex(layout.TileOf(d), layout.TileOf(s))
			fn(dj, d, s)
		}
	}
}

// ConvertEdgeListFile reads a binary edge list from path and converts it.
// numVertices and directed describe the input (edge-list files carry no
// header).
func ConvertEdgeListFile(path string, numVertices uint32, directed bool, dir, name string, opts ConvertOptions) (*Graph, error) {
	el, err := graph.ReadEdgeListFile(path, numVertices, directed)
	if err != nil {
		return nil, err
	}
	if !directed {
		el.Canonicalize()
	}
	return Convert(el, dir, name, opts)
}
