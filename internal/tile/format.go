// Package tile implements G-Store's space-efficient tile storage format
// (§IV of the paper): the smallest-number-of-bits (SNB) tuple encoding,
// the start-edge index, the compact degree encoding, and the two-pass
// converter from edge lists.
//
// A converted graph is a directory of files sharing a base name:
//
//	<name>.meta  — JSON header (vertex/edge counts, tile bits, flags, the
//	               v2 section manifest) followed by a checksum trailer
//	<name>.start — int64 per stored tile: prefix sums of edge counts,
//	               NumTiles+1 entries (the paper's start-edge file)
//	<name>.tiles — all tile tuples concatenated in physical-group disk
//	               order (§V-A)
//	<name>.crc   — format v2: one CRC32C per stored tile, disk order
//	<name>.deg   — optional degree array in the 2-byte escape encoding
//	               of §IV-C
//
// All converter outputs are written crash-safely (tmp file + fsync +
// atomic rename, meta last), so an interrupted conversion leaves either a
// fully valid graph or no graph — never a torn one. Every readable graph
// carries the checksum layer: a format v1 header (no .crc, no manifest,
// no meta trailer) is rejected by Open and Fsck with an error that says
// to re-convert.
package tile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
)

// Magic identifies G-Store metadata files.
const Magic = "GSTORE-TILES"

// Version is the current fixed-width format version: v2 adds per-tile
// CRC32C checksums, the section manifest, and the meta checksum trailer.
const Version = 2

// VersionV3 is the compressed-tile format: v2's integrity layer plus the
// sorted delta+varint block codec for tile data (codec "v3") and a
// start-edge file extended with per-tile byte offsets. Readers without v3
// support reject these graphs at Open instead of misreading them.
const VersionV3 = 3

// SNBTupleBytes is the on-disk tuple size with the SNB representation:
// two 16-bit in-tile offsets (§IV-B).
const SNBTupleBytes = 4

// RawTupleBytes is the tuple size without SNB: two full 32-bit IDs. It is
// used by the "symmetry only" ablation configuration of Figure 10.
const RawTupleBytes = 8

// Meta is the JSON header of a converted graph.
type Meta struct {
	Magic       string `json:"magic"`
	Version     int    `json:"version"`
	Name        string `json:"name"`
	NumVertices uint32 `json:"num_vertices"`
	// NumStored is the number of stored tuples; for a half-stored
	// undirected graph this is the number of canonical edges.
	NumStored int64 `json:"num_stored"`
	// NumOriginal is the edge count of the input edge list (an undirected
	// input counted once per canonical tuple).
	NumOriginal int64  `json:"num_original"`
	TileBits    uint   `json:"tile_bits"`
	GroupQ      uint32 `json:"group_q"`
	Directed    bool   `json:"directed"`
	// Half is true when only the upper triangle is stored (undirected
	// symmetry saving, §IV-A).
	Half bool `json:"half"`
	// SNB is true when tuples use the 2-byte-per-endpoint encoding.
	// Retained alongside Codec for v2 compatibility; TupleCodec resolves
	// the two.
	SNB bool `json:"snb"`
	// Codec names the tuple encoding: "" (derive from SNB), "snb",
	// "raw", or "v3" (sorted delta+varint blocks; requires Version 3).
	Codec string `json:"codec,omitempty"`
	// DegreeFormat is "", "compact" (§IV-C) or "plain".
	DegreeFormat string `json:"degree_format,omitempty"`
	// Manifest records each section file's byte length and whole-file
	// CRC32C digest.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// TupleBytes returns the per-tuple on-disk size for fixed-width codecs,
// and 0 for the variable-width v3 codec (whose byte extents come from the
// extended start-edge index instead).
func (m *Meta) TupleBytes() int64 { return m.TupleCodec().TupleBytes() }

// TupleCodec resolves the header's codec fields into a Codec value. For
// v2 headers (empty Codec string) the legacy SNB flag decides between
// SNB and raw.
func (m *Meta) TupleCodec() Codec {
	if m.Codec == "" {
		if m.SNB {
			return CodecSNB
		}
		return CodecRaw
	}
	c, err := ParseCodec(m.Codec)
	if err != nil {
		// Validate rejects unknown codec strings at read time; fall back
		// to the SNB-flag resolution for unvalidated Metas.
		if m.SNB {
			return CodecSNB
		}
		return CodecRaw
	}
	return c
}

// Validate checks internal consistency of the header.
func (m *Meta) Validate() error {
	switch {
	case m.Magic != Magic:
		return fmt.Errorf("tile: bad magic %q", m.Magic)
	case m.Version == 1:
		return fmt.Errorf("tile: format v1 graph has no checksums and is no longer readable; re-convert it from its edge list")
	case m.Version != Version && m.Version != VersionV3:
		return fmt.Errorf("tile: unsupported version %d (this build reads v%d and v%d)",
			m.Version, Version, VersionV3)
	case m.Manifest == nil:
		return fmt.Errorf("tile: v%d header without a section manifest", m.Version)
	case m.NumVertices == 0:
		return fmt.Errorf("tile: zero vertices")
	case m.TileBits == 0 || m.TileBits > 16:
		return fmt.Errorf("tile: tile bits %d out of range", m.TileBits)
	case m.Directed && m.Half:
		return fmt.Errorf("tile: half storage is only defined for undirected graphs")
	case m.NumStored < 0 || m.NumOriginal < 0:
		return fmt.Errorf("tile: negative edge count")
	}
	c, err := ParseCodec(m.Codec)
	if err != nil {
		return err
	}
	if m.Codec != "" && c != CodecV3 && c.SNB() != m.SNB {
		return fmt.Errorf("tile: codec %q contradicts snb=%v", m.Codec, m.SNB)
	}
	if (c == CodecV3) != (m.Version == VersionV3) {
		return fmt.Errorf("tile: format v%d and codec %q must go together (header has version %d, codec %q)",
			VersionV3, CodecV3, m.Version, m.Codec)
	}
	return nil
}

// Paths of the individual files for a graph stored at base path p (without
// extension).
func metaPath(p string) string  { return p + ".meta" }
func startPath(p string) string { return p + ".start" }
func tilesPath(p string) string { return p + ".tiles" }
func crcPath(p string) string   { return p + ".crc" }
func degPath(p string) string   { return p + ".deg" }

// writeMeta serializes the header, appends the checksum trailer, and
// writes it atomically. The meta file is the commit point of a
// conversion: it is written last, so its presence implies every section
// it names was already durably written.
func writeMeta(fsys faultfs.FS, p string, m *Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileFS(fsys, metaPath(p), signMeta(append(data, '\n')), 0o644)
}

func readMeta(p string) (*Meta, error) {
	data, err := os.ReadFile(metaPath(p))
	if err != nil {
		return nil, err
	}
	payload, sum, signed := splitMetaTrailer(data)
	if signed {
		if got := Checksum(payload); got != sum {
			return nil, fmt.Errorf("tile: meta %s checksum %08x does not match trailer %08x (corrupt header)",
				metaPath(p), got, sum)
		}
	}
	var m Meta
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("tile: corrupt meta %s: %w", metaPath(p), err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !signed {
		return nil, fmt.Errorf("tile: meta %s is v%d but has no checksum trailer (truncated header)",
			metaPath(p), m.Version)
	}
	return &m, nil
}

// BasePath joins dir and name into the base path used by Create/Open.
func BasePath(dir, name string) string { return filepath.Join(dir, name) }
