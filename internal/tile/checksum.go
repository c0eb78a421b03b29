package tile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Format v2 integrity layer. A v2 graph carries three levels of
// protection:
//
//  1. Per-tile CRC32C checksums in a <name>.crc sidecar (one little-endian
//     uint32 per stored tile, in disk order). The engine verifies each
//     fetched tile against its entry on the hot read path; gstore fsck
//     verifies all of them offline and names the corrupt tile(s).
//  2. A manifest inside <name>.meta recording every section's byte length
//     and whole-file CRC32C digest, so torn or substituted section files
//     are rejected at Open (start/crc) or first use (deg) without reading
//     the (potentially huge) tiles file.
//  3. A checksum trailer on the meta file itself — a final
//     "#crc32c:XXXXXXXX" line over the preceding JSON bytes — making the
//     manifest tamper-evident: a flipped bit anywhere in the header is
//     detected before any of its fields are trusted.

// castagnoli is the CRC32C table; Castagnoli is the SSE4.2-accelerated
// polynomial used by ext4, btrfs and iSCSI, which Go dispatches to the
// hardware instruction on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C digest of data — the per-tile checksum of
// format v2.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// SectionSum records one section file's length and whole-file CRC32C
// digest in the v2 manifest.
type SectionSum struct {
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

func sumBytes(data []byte) SectionSum {
	return SectionSum{Bytes: int64(len(data)), CRC32C: Checksum(data)}
}

// check compares an observed sum against the manifest entry.
func (s SectionSum) check(name string, got SectionSum) error {
	if got.Bytes != s.Bytes {
		return fmt.Errorf("tile: %s is %d bytes, manifest says %d", name, got.Bytes, s.Bytes)
	}
	if got.CRC32C != s.CRC32C {
		return fmt.Errorf("tile: %s crc32c %08x does not match manifest %08x (corrupt file)",
			name, got.CRC32C, s.CRC32C)
	}
	return nil
}

// fileSum computes a SectionSum by streaming path.
func fileSum(path string) (SectionSum, error) {
	f, err := os.Open(path)
	if err != nil {
		return SectionSum{}, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return SectionSum{}, err
	}
	return SectionSum{Bytes: n, CRC32C: h.Sum32()}, nil
}

// Manifest is the v2 whole-file digest table embedded in the meta header.
type Manifest struct {
	Start   SectionSum  `json:"start"`
	Tiles   SectionSum  `json:"tiles"`
	TileCRC SectionSum  `json:"tile_crc"`
	Deg     *SectionSum `json:"deg,omitempty"`
}

// ChecksumError reports a tile whose data does not match its recorded
// CRC32C checksum.
type ChecksumError struct {
	Tile int
	Want uint32
	Got  uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("tile: tile %d crc32c %08x, want %08x (corrupt data)",
		e.Tile, e.Got, e.Want)
}

// Tile-CRC sidecar codec: one little-endian uint32 per stored tile.

func encodeTileCRCs(crcs []uint32) []byte {
	buf := make([]byte, len(crcs)*4)
	for i, c := range crcs {
		binary.LittleEndian.PutUint32(buf[i*4:], c)
	}
	return buf
}

func decodeTileCRCs(data []byte, numTiles int) ([]uint32, error) {
	if len(data) != numTiles*4 {
		return nil, fmt.Errorf("tile: checksum file is %d bytes, want %d (%d tiles)",
			len(data), numTiles*4, numTiles)
	}
	crcs := make([]uint32, numTiles)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return crcs, nil
}

// Meta trailer: the last line of a v2 meta file is "#crc32c:XXXXXXXX",
// the digest of every preceding byte. v1 metas have no trailer.

var metaTrailerPrefix = []byte("#crc32c:")

// signMeta appends the checksum trailer to a serialized meta payload.
func signMeta(payload []byte) []byte {
	return append(payload, []byte(fmt.Sprintf("%s%08x\n", metaTrailerPrefix, Checksum(payload)))...)
}

// splitMetaTrailer separates a meta file into its JSON payload and
// trailer checksum. The trailer must be the file's exact final line —
// "#crc32c:" plus 8 hex digits plus "\n" — so a byte flipped anywhere
// inside it (including the terminator) demotes the file to "no
// trailer", which a v2 reader rejects. ok is false when no intact
// trailer is present.
func splitMetaTrailer(data []byte) (payload []byte, sum uint32, ok bool) {
	tlen := len(metaTrailerPrefix) + 9 // 8 hex digits + newline
	idx := len(data) - tlen
	if idx < 0 || (idx > 0 && data[idx-1] != '\n') || data[len(data)-1] != '\n' ||
		!bytes.HasPrefix(data[idx:], metaTrailerPrefix) {
		return data, 0, false
	}
	hex := data[idx+len(metaTrailerPrefix) : len(data)-1]
	var s uint32
	for _, c := range hex {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return data, 0, false
		}
		s = s<<4 | d
	}
	return data[:idx], s, true
}
