package tile

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/gwu-systems/gstore/internal/grid"
)

// FsckFinding is one problem discovered by Fsck.
type FsckFinding struct {
	// Section names the damaged file: "meta", "start", "tiles", "crc" or
	// "deg".
	Section string
	// Tile is the disk index of the corrupt tile for tile-granular
	// findings, -1 otherwise.
	Tile int
	// Detail is a human-readable description.
	Detail string
}

func (f FsckFinding) String() string {
	if f.Tile >= 0 {
		return fmt.Sprintf("%s: tile %d: %s", f.Section, f.Tile, f.Detail)
	}
	return fmt.Sprintf("%s: %s", f.Section, f.Detail)
}

// FsckReport is the result of an offline integrity check.
type FsckReport struct {
	Base    string
	Version int
	// TilesChecked counts tiles whose per-tile CRC32C was verified.
	TilesChecked int
	// TuplesChecked counts tuples whose endpoints were range-validated.
	TuplesChecked int64
	Findings      []FsckFinding
	// Truncated is set when the findings list hit its cap and further
	// problems were suppressed.
	Truncated bool
}

// OK reports whether the graph passed every applicable check.
func (r *FsckReport) OK() bool { return len(r.Findings) == 0 && !r.Truncated }

// maxFsckFindings bounds the report so a wholly scrambled multi-terabyte
// graph cannot balloon memory; the cap is noted in the report.
const maxFsckFindings = 64

func (r *FsckReport) add(section string, tileIdx int, format string, args ...interface{}) {
	if len(r.Findings) >= maxFsckFindings {
		r.Truncated = true
		return
	}
	r.Findings = append(r.Findings, FsckFinding{
		Section: section, Tile: tileIdx, Detail: fmt.Sprintf(format, args...),
	})
}

// Fsck validates the graph stored at base path p offline and reports
// every problem it can find rather than stopping at the first:
//
//   - meta: readable, checksum trailer intact, JSON valid, header
//     invariants hold
//   - start: manifest length+digest, entries non-negative and monotone
//     from zero, final entry matching the meta edge count
//   - crc: manifest length+digest
//   - tiles: file size, whole-file digest, then per-tile: CRC32C against
//     the sidecar, every decoded tuple inside its tile's vertex ranges,
//     and for v3 tuples that never decrease in (source, destination)
//     order across the whole tile, the order the write path's block
//     choice relies on
//   - deg: manifest length+digest, decodable, and in agreement with the
//     degrees recounted from the tuples
//
// Unlike Open, Fsck never trusts one section to validate another: a
// corrupt start index does not prevent the tiles file's whole-file digest
// from being checked. A v1 graph, which has no checksum layer to check,
// is reported as an invalid header that says to re-convert.
func Fsck(p string) *FsckReport {
	r := &FsckReport{Base: p}

	// --- meta ---------------------------------------------------------
	data, err := os.ReadFile(metaPath(p))
	if err != nil {
		r.add("meta", -1, "unreadable: %v", err)
		return r
	}
	payload, sum, signed := splitMetaTrailer(data)
	if signed {
		if got := Checksum(payload); got != sum {
			r.add("meta", -1, "checksum %08x does not match trailer %08x (corrupt header)", got, sum)
			return r
		}
	}
	var m Meta
	if err := json.Unmarshal(payload, &m); err != nil {
		r.add("meta", -1, "corrupt JSON: %v", err)
		return r
	}
	if err := m.Validate(); err != nil {
		r.add("meta", -1, "invalid header: %v", err)
		return r
	}
	if !signed {
		r.add("meta", -1, "v%d header has no checksum trailer (truncated)", m.Version)
		return r
	}
	r.Version = m.Version
	layout, err := grid.New(m.NumVertices, m.TileBits, m.GroupQ, !m.Directed && m.Half)
	if err != nil {
		r.add("meta", -1, "layout: %v", err)
		return r
	}
	nt := layout.NumTiles()
	codec := m.TupleCodec()
	tb := m.TupleBytes()

	// --- start --------------------------------------------------------
	// For v3 graphs the start file also carries the byte-offset index
	// that locates each variable-width tile.
	var start, byteOff []int64
	if sdata, err := os.ReadFile(startPath(p)); err != nil {
		r.add("start", -1, "unreadable: %v", err)
	} else {
		if err := m.Manifest.Start.check("start-edge file", sumBytes(sdata)); err != nil {
			r.add("start", -1, "%v", err)
		}
		if s, bo, err := parseStartCodec(sdata, startPath(p), nt, codec); err != nil {
			r.add("start", -1, "%v", err)
		} else if s[nt] != m.NumStored {
			r.add("start", -1, "ends at %d tuples, meta says %d", s[nt], m.NumStored)
		} else {
			start, byteOff = s, bo
		}
	}

	// --- crc sidecar --------------------------------------------------
	var tileCRC []uint32
	if cdata, err := os.ReadFile(crcPath(p)); err != nil {
		r.add("crc", -1, "unreadable: %v", err)
	} else if err := m.Manifest.TileCRC.check("tile checksum file", sumBytes(cdata)); err != nil {
		r.add("crc", -1, "%v", err)
	} else if c, err := decodeTileCRCs(cdata, nt); err != nil {
		r.add("crc", -1, "%v", err)
	} else {
		tileCRC = c
	}

	// --- tiles --------------------------------------------------------
	var deg []uint32
	if m.DegreeFormat != "" {
		deg = make([]uint32, m.NumVertices)
	}
	tf, err := os.Open(tilesPath(p))
	if err != nil {
		r.add("tiles", -1, "unreadable: %v", err)
	} else {
		func() {
			defer tf.Close()
			st, err := tf.Stat()
			if err != nil {
				r.add("tiles", -1, "stat: %v", err)
				return
			}
			if codec == CodecV3 {
				// Variable-width tiles: the authoritative size is the
				// byte-offset index (cross-checked against the manifest
				// digest above when available).
				if byteOff != nil && st.Size() != byteOff[nt] {
					r.add("tiles", -1, "file is %d bytes, byte-offset index says %d",
						st.Size(), byteOff[nt])
					return
				}
			} else if want := m.NumStored * tb; st.Size() != want {
				r.add("tiles", -1, "file is %d bytes, want %d (%d tuples × %d bytes)",
					st.Size(), want, m.NumStored, tb)
				return
			}
			got, err := fileSum(tilesPath(p))
			if err != nil {
				r.add("tiles", -1, "digest: %v", err)
			} else if err := m.Manifest.Tiles.check("tiles file", got); err != nil {
				r.add("tiles", -1, "%v", err)
			}
			if start == nil || (codec == CodecV3 && byteOff == nil) {
				return // cannot locate individual tiles without the index
			}
			var buf []byte
			for i := 0; i < nt; i++ {
				off, n := start[i]*tb, (start[i+1]-start[i])*tb
				if codec == CodecV3 {
					off, n = byteOff[i], byteOff[i+1]-byteOff[i]
				}
				if int64(cap(buf)) < n {
					buf = make([]byte, n)
				}
				b := buf[:n]
				if n > 0 {
					if _, err := tf.ReadAt(b, off); err != nil {
						r.add("tiles", i, "read: %v", err)
						continue
					}
				}
				if tileCRC != nil {
					if got := Checksum(b); got != tileCRC[i] {
						c := layout.CoordAt(i)
						r.add("tiles", i, "crc32c %08x, want %08x (row %d, col %d)",
							got, tileCRC[i], c.Row, c.Col)
						continue
					}
					r.TilesChecked++
				}
				co := layout.CoordAt(i)
				rLo, rHi := layout.VertexRange(co.Row)
				cLo, cHi := layout.VertexRange(co.Col)
				bad, unsorted := -1, -1
				idx := 0
				var prev uint64 // the previous tuple's (source, destination)
				err := DecodeTuples(b, codec, rLo, cLo, func(s, d uint32) {
					if bad < 0 && (s < rLo || s >= rHi || d < cLo || d >= cHi ||
						s >= m.NumVertices || d >= m.NumVertices) {
						bad = idx
					}
					if codec == CodecV3 {
						k := uint64(s)<<32 | uint64(d)
						if unsorted < 0 && k < prev {
							unsorted = idx
						}
						prev = k
					}
					if deg != nil && s < m.NumVertices && d < m.NumVertices {
						deg[s]++
						if !m.Directed && m.Half && s != d {
							deg[d]++
						}
					}
					idx++
				})
				r.TuplesChecked += int64(idx)
				switch {
				case err != nil:
					r.add("tiles", i, "undecodable: %v", err)
				case bad >= 0:
					r.add("tiles", i, "tuple %d outside tile ranges (row %d, col %d)",
						bad, co.Row, co.Col)
				case unsorted >= 0:
					// Within a block the encoding cannot go backwards, so
					// this is an order broken across a block boundary.
					r.add("tiles", i, "tuple %d is below tuple %d in (source, destination) order (row %d, col %d)",
						unsorted, unsorted-1, co.Row, co.Col)
				case int64(idx) != start[i+1]-start[i]:
					// Meaningful for v3, where the block headers carry their
					// own tuple counts; fixed-width codecs satisfy this by
					// construction.
					r.add("tiles", i, "decodes to %d tuples, start-edge index says %d",
						idx, start[i+1]-start[i])
				}
			}
		}()
	}

	// --- deg ----------------------------------------------------------
	if m.DegreeFormat != "" {
		if ddata, err := os.ReadFile(degPath(p)); err != nil {
			r.add("deg", -1, "unreadable: %v", err)
		} else {
			if m.Manifest.Deg != nil {
				if err := m.Manifest.Deg.check("degree file", sumBytes(ddata)); err != nil {
					r.add("deg", -1, "%v", err)
				}
			}
			src, err := decodeDegreeFile(ddata, int(m.NumVertices), m.DegreeFormat)
			switch {
			case err != nil:
				r.add("deg", -1, "undecodable: %v", err)
			case deg != nil && start != nil && !hasTileFindings(r):
				// Degree agreement is only meaningful over intact tuples;
				// with tile-level damage the recount is itself suspect.
				for v := uint32(0); v < m.NumVertices; v++ {
					if got := src.Degree(v); got != deg[v] {
						r.add("deg", -1, "vertex %d: degree file says %d, tuples say %d", v, got, deg[v])
					}
				}
			}
		}
	}
	return r
}

func hasTileFindings(r *FsckReport) bool {
	for _, f := range r.Findings {
		if f.Section == "tiles" || f.Section == "start" {
			return true
		}
	}
	return false
}
