package tile

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Codec names a tuple encoding for tile data. Raw and SNB are the
// fixed-width v1/v2 encodings; V3 is the compressed block encoding of
// format version 3: within every tile the tuples are sorted by
// (source offset, destination offset) and packed into fixed-size decode
// blocks of at most V3BlockTuples tuples. Each block is framed by a
// uvarint byte length so readers can walk block boundaries without
// decoding, and each block restarts the delta chains, so any block can be
// decoded independently — that is what lets SplitViews cut a v3 tile into
// parallel work items at block boundaries.
//
// Inside a block each tuple stores:
//
//	uvarint srcDelta  — source offset minus the previous tuple's source
//	                    offset (the block's first tuple encodes its source
//	                    offset absolutely, i.e. a delta from zero)
//	uvarint dstField  — when the tuple starts a new source run (first in
//	                    block, or srcDelta > 0): the absolute destination
//	                    offset; otherwise the delta from the previous
//	                    destination offset (non-negative, tuples sorted)
type Codec uint8

const (
	// CodecSNB is the 4-byte smallest-number-of-bits tuple encoding
	// (§IV-B): two little-endian uint16 in-tile offsets.
	CodecSNB Codec = iota
	// CodecRaw is the 8-byte encoding with full 32-bit vertex IDs.
	CodecRaw
	// CodecV3 is the sorted delta+varint block encoding (format v3).
	CodecV3
)

// V3BlockTuples is the maximum tuple count per v3 decode block. 512
// tuples keep a block around 1-1.5 KiB — small enough that chunked
// dispatch retains fine-grained work items, large enough that the restart
// overhead (one absolute source+destination) is amortized away.
const V3BlockTuples = 512

// v3MaxField bounds a decoded varint field: offsets and deltas are
// in-tile quantities (TileBits <= 16), so anything above 2^17 is corrupt,
// well before uint32 accumulation could wrap.
const v3MaxField = 1 << 17

// ParseCodec maps a codec name from flags or the meta header to a Codec.
// The empty string selects SNB, the format default.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "snb":
		return CodecSNB, nil
	case "raw":
		return CodecRaw, nil
	case "v3":
		return CodecV3, nil
	}
	return CodecSNB, fmt.Errorf("tile: unknown codec %q (want snb, raw or v3)", s)
}

// String returns the canonical name recorded in meta headers.
func (c Codec) String() string {
	switch c {
	case CodecSNB:
		return "snb"
	case CodecRaw:
		return "raw"
	case CodecV3:
		return "v3"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// SNB reports whether the codec stores in-tile offsets (so decoding needs
// the tile's row/column vertex bases) rather than full vertex IDs.
func (c Codec) SNB() bool { return c != CodecRaw }

// Sorted reports whether a tile in codec c is sorted by (source,
// destination) across its blocks, its block heads an index: v3 only.
func (c Codec) Sorted() bool { return c == CodecV3 }

// TupleBytes returns the fixed per-tuple size, or 0 for the
// variable-width V3 codec.
func (c Codec) TupleBytes() int64 {
	switch c {
	case CodecSNB:
		return SNBTupleBytes
	case CodecRaw:
		return RawTupleBytes
	}
	return 0
}

// FormatVersion returns the tile format version a codec is stored under.
func (c Codec) FormatVersion() int {
	if c == CodecV3 {
		return VersionV3
	}
	return Version
}

// V3Key packs a tuple's in-tile offsets into the sortable key the v3
// encoder consumes: source offset in the high bits, destination offset in
// the low bits. Plain uint32 ordering of keys is exactly the
// (source, destination) tuple order.
func V3Key(srcOff, dstOff uint32, bits uint) uint32 {
	return srcOff<<bits | dstOff
}

// AppendV3 encodes the tuples represented by keys (as packed by V3Key
// with the same bits) into the v3 block format, appending to dst. keys is
// sorted first unless it already is (sortV3Keys), so its order afterwards
// is unspecified; duplicates are preserved.
func AppendV3(dst []byte, keys []uint32, bits uint) []byte {
	if !slices.IsSorted(keys) {
		scratch := v3SortScratch.Get().(*[]uint32)
		if cap(*scratch) < len(keys) {
			*scratch = make([]uint32, len(keys))
		}
		keys = sortV3Keys(keys, (*scratch)[:len(keys)])
		defer func() {
			if cap(*scratch) <= maxPooledSortKeys {
				v3SortScratch.Put(scratch)
			}
		}()
	}
	mask := uint32(1)<<bits - 1
	for off := 0; off < len(keys); off += V3BlockTuples {
		end := off + V3BlockTuples
		if end > len(keys) {
			end = len(keys)
		}
		// The payload is encoded in place behind a 2-byte length prefix:
		// at most 2 + V3BlockTuples·8 bytes (a 32-bit source delta and a
		// 16-bit destination per tuple), its uvarint length never needs
		// more. A payload under 128 bytes takes one, and moves back a
		// byte.
		at := len(dst)
		dst = append(dst, 0, 0)
		dst = binary.AppendUvarint(dst, uint64(end-off))
		prevSrc, prevDst := uint32(0), uint32(0)
		for i, k := range keys[off:end] {
			src, dstOff := k>>bits, k&mask
			dst = binary.AppendUvarint(dst, uint64(src-prevSrc))
			if i == 0 || src != prevSrc {
				dst = binary.AppendUvarint(dst, uint64(dstOff))
			} else {
				dst = binary.AppendUvarint(dst, uint64(dstOff-prevDst))
			}
			prevSrc, prevDst = src, dstOff
		}
		if n := len(dst) - at - 2; n < 0x80 {
			dst[at] = byte(n)
			dst = append(dst[:at+1], dst[at+2:]...)
		} else {
			dst[at], dst[at+1] = byte(n)|0x80, byte(n>>7)
		}
	}
	return dst
}

// v3SortScratch recycles AppendV3's radix-sort buffers across calls and
// goroutines; a buffer above maxPooledSortKeys is dropped rather than
// pinned.
var v3SortScratch = sync.Pool{New: func() any { return new([]uint32) }}

const maxPooledSortKeys = 1 << 21 // 8 MiB of uint32 scratch

// radixCutoff is the key count up to which sortV3Keys hands a tile to
// slices.Sort: below it, clearing and summing the digit counts costs more
// than the comparisons they save.
const radixCutoff = 256

// sortV3Keys sorts keys in ascending order: an LSD radix sort in 8-bit
// digits that skips every digit on which all keys agree (so a V3Key
// costs passes only for its 2·bits bits), with slices.Sort up to
// radixCutoff keys. tmp is scratch of len(keys); the sorted keys are
// returned in whichever of keys and tmp the last pass filled. Equal keys
// are equal values, so the result is the same as slices.Sort's.
func sortV3Keys(keys, tmp []uint32) []uint32 {
	if len(keys) <= radixCutoff {
		slices.Sort(keys)
		return keys
	}
	// One read of the keys counts all four digits; moving keys between
	// buffers does not change the counts.
	var counts [4][256]int
	for _, k := range keys {
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24]++
	}
	src, dst := keys, tmp[:len(keys)]
	for d := range uint(4) {
		c, shift := &counts[d], 8*d
		if c[src[0]>>shift&0xff] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range src {
			b := k >> shift & 0xff
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// v3Frame splits the leading block off data: the uvarint length prefix
// and the payload it frames.
func v3Frame(data []byte) (payload, rest []byte, err error) {
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("tile: v3 block has a corrupt length prefix")
	}
	if size == 0 || size > uint64(len(data)-n) {
		return nil, nil, fmt.Errorf("tile: v3 block claims %d payload bytes, %d remain",
			size, len(data)-n)
	}
	return data[n : n+int(size)], data[n+int(size):], nil
}

// v3Count reads the tuple count that leads a v3 block's payload and
// returns it and the bytes it took. Each tuple takes at least two varint
// bytes, so a payload too short for its count is rejected here.
func v3Count(payload []byte) (count, k int, err error) {
	c, k := binary.Uvarint(payload)
	if k <= 0 || c == 0 || c > V3BlockTuples {
		return 0, 0, fmt.Errorf("tile: v3 block has bad tuple count %d", c)
	}
	if uint64(len(payload)-k) < 2*c {
		return 0, 0, fmt.Errorf("tile: v3 block payload too short for %d tuples", c)
	}
	return int(c), k, nil
}
