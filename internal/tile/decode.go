package tile

import (
	"encoding/binary"
	"fmt"
)

// This file is the read side of every tuple codec: DecodeBlock is the
// only place that knows how tile bytes become edges (V3BlockHead and
// Tuples read block headers alone), and SplitViews the only place that
// knows where tile bytes may be cut. Every reader — the engine's workers,
// fsck, ForEachEdge, the delta package — reaches the bytes through these;
// a tuple's position in a tile is its index in DecodeBlock order.

// DecodeBlock decodes the leading tuples of data, which is in codec c,
// into src and dst as full vertex IDs, and returns how many it decoded
// and the bytes that follow them. One call consumes one decode block of
// a v3 tile, or up to V3BlockTuples tuples of a fixed-width one, so a
// loop that runs until rest is empty visits a whole tile — or any view
// SplitViews produced from it — in stored order.
//
// rowBase and colBase are the first vertex IDs of the tile's row and
// column ranges (ignored by the raw codec, which stores full IDs). Data
// that is not a whole number of tuples (fixed-width codecs) or whose
// leading block is corrupt (v3) is rejected with n == 0.
func DecodeBlock(data []byte, c Codec, rowBase, colBase uint32, src, dst *[V3BlockTuples]uint32) (n int, rest []byte, err error) {
	switch c {
	case CodecSNB:
		if len(data)%SNBTupleBytes != 0 {
			return 0, nil, fmt.Errorf("tile: %d bytes is not a whole number of SNB tuples", len(data))
		}
		n = min(len(data)/SNBTupleBytes, V3BlockTuples)
		for i := 0; i < n; i++ {
			t := binary.LittleEndian.Uint32(data[i*SNBTupleBytes:])
			src[i] = rowBase + t&0xffff
			dst[i] = colBase + t>>16
		}
		return n, data[n*SNBTupleBytes:], nil
	case CodecV3:
		return decodeV3Block(data, rowBase, colBase, src, dst)
	}
	if len(data)%RawTupleBytes != 0 {
		return 0, nil, fmt.Errorf("tile: %d bytes is not a whole number of raw tuples", len(data))
	}
	n = min(len(data)/RawTupleBytes, V3BlockTuples)
	for i := 0; i < n; i++ {
		t := binary.LittleEndian.Uint64(data[i*RawTupleBytes:])
		src[i] = uint32(t)
		dst[i] = uint32(t >> 32)
	}
	return n, data[n*RawTupleBytes:], nil
}

// V3BlockHead returns the first tuple of the leading v3 block of data, as
// full vertex IDs, and the bytes that follow the block. It reads the
// block's frame, its tuple count and its first two varints, and checks
// each as DecodeBlock would; the rest of the payload is neither decoded
// nor validated. Every block restarts its delta chains, so its first
// tuple is absolute, and a v3 tile is sorted by (source, destination)
// across its blocks, so the heads of a tile's blocks are a sorted index
// of it: block j can hold a key k only if head j <= k <= head j+1.
func V3BlockHead(data []byte, rowBase, colBase uint32) (src, dst uint32, rest []byte, err error) {
	payload, rest, err := v3Frame(data)
	if err != nil {
		return 0, 0, nil, err
	}
	_, k, err := v3Count(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	s, n := binary.Uvarint(payload[k:])
	if n <= 0 || s > v3MaxField {
		return 0, 0, nil, fmt.Errorf("tile: v3 block tuple 0 has corrupt source delta")
	}
	d, m := binary.Uvarint(payload[k+n:])
	if m <= 0 || d > v3MaxField {
		return 0, 0, nil, fmt.Errorf("tile: v3 block tuple 0 has corrupt destination field")
	}
	return rowBase + uint32(s), colBase + uint32(d), rest, nil
}

// Tuples returns the number of tuples in data, a tile or a run of its
// blocks in codec c, without decoding them. It is also the engine's check
// after the CRC: data must be whole fixed-width tuples, or v3 blocks whose
// frames and tuple counts hold and that cover data exactly. Full payload
// validation is DecodeBlock's (so fsck's).
func Tuples(data []byte, c Codec) (int, error) {
	if tb := int(c.TupleBytes()); tb > 0 {
		if len(data)%tb != 0 {
			return 0, fmt.Errorf("tile: %d bytes is not a whole number of %s tuples", len(data), c)
		}
		return len(data) / tb, nil
	}
	n := 0
	for rest := data; len(rest) > 0; {
		payload, next, err := v3Frame(rest)
		count := 0
		if err == nil {
			count, _, err = v3Count(payload)
		}
		if err != nil {
			return 0, fmt.Errorf("tile: decode at byte %d: %w", len(data)-len(rest), err)
		}
		n, rest = n+count, next
	}
	return n, nil
}

// decodeV3Block decodes one length-framed v3 block, validating the frame,
// the tuple count and every varint field as it goes.
//
// While at least eight payload bytes remain, a tuple is decoded from one
// unaligned 64-bit load with shifts and masks. The encoders emit fields of
// at most v3MaxField, so at most three varint bytes each, and on real
// tiles nearly every tuple is a 1-byte source delta followed by a 1- or
// 2-byte destination field: that shape has no data-dependent branch (the
// field length is the continuation bit used as a number, the "same source
// run adds the previous destination" rule a mask). Source deltas of 128
// and more and 3-byte fields take branches that are rarely taken. A field
// of four or more varint bytes — nothing an encoder writes, but something
// binary.Uvarint may accept — sends the whole block through the
// binary.Uvarint loop below, which also decodes the last < 8 bytes of
// every payload, so the accepted and rejected inputs are exactly that
// loop's.
func decodeV3Block(data []byte, rowBase, colBase uint32, src, dst *[V3BlockTuples]uint32) (int, []byte, error) {
	payload, rest, err := v3Frame(data)
	if err != nil {
		return 0, nil, err
	}
	n, k, err := v3Count(payload)
	if err != nil {
		return 0, nil, err
	}
	// s is the previous tuple's source as a full vertex ID, d its
	// destination as an in-tile offset (the range check is on offsets).
	s, d := rowBase, uint32(0)
	i, p := 0, k
	for ; i < n && p+8 <= len(payload); i++ {
		w := binary.LittleEndian.Uint64(payload[p : p+8])
		srcDelta := uint32(w & 0x7f)
		if w&0x80 != 0 {
			w >>= 8
			p++
			srcDelta |= uint32(w&0x7f) << 7
			if w&0x80 != 0 {
				w >>= 8
				p++
				srcDelta |= uint32(w&0x7f) << 14
			}
			if w&0x80 != 0 || srcDelta > v3MaxField {
				i, p, s, d = 0, k, rowBase, 0
				break
			}
		}
		// The destination field starts at byte 1 of w, and at least five
		// bytes of w from there on are payload.
		two := uint32(w >> 15 & 1)
		field := uint32(w>>8&0x7f) | uint32(w>>16&0x7f)<<7&-two
		p += 2 + int(two)
		if two&uint32(w>>23) != 0 {
			p++
			field |= uint32(w>>24&0x7f) << 14
			if w>>31&1 != 0 {
				i, p, s, d = 0, k, rowBase, 0
				break
			}
			// A field above v3MaxField fails the check on d below.
		}
		// srcDelta == 0 continues the source run, whose field is a delta
		// from the previous destination (zero before the first tuple).
		d = field + d&-((srcDelta-1)>>31)
		if d > v3MaxField {
			return 0, nil, fmt.Errorf("tile: v3 block tuple %d destination offset out of range", i)
		}
		s += srcDelta
		src[i], dst[i] = s, colBase+d
	}
	payload = payload[p:]
	for ; i < n; i++ {
		srcDelta, k := binary.Uvarint(payload)
		if k <= 0 || srcDelta > v3MaxField {
			return 0, nil, fmt.Errorf("tile: v3 block tuple %d has corrupt source delta", i)
		}
		payload = payload[k:]
		field, k := binary.Uvarint(payload)
		if k <= 0 || field > v3MaxField {
			return 0, nil, fmt.Errorf("tile: v3 block tuple %d has corrupt destination field", i)
		}
		payload = payload[k:]
		if i > 0 && srcDelta == 0 {
			field += uint64(d)
		}
		if field > v3MaxField {
			return 0, nil, fmt.Errorf("tile: v3 block tuple %d destination offset out of range", i)
		}
		s, d = s+uint32(srcDelta), uint32(field)
		src[i], dst[i] = s, colBase+d
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("tile: v3 block has %d trailing bytes after %d tuples", len(payload), n)
	}
	return n, rest, nil
}

// DecodeTuples iterates over the tuples of one tile's data in codec c —
// DecodeBlock behind a per-tuple callback, for callers off the hot path
// (fsck, ForEachEdge, tests). It returns an error, naming the
// byte offset of the offending block, if data is not a whole number of
// tuples (fixed-width codecs) or its block structure is corrupt (v3);
// tuples of the blocks before a corrupt one have been delivered by then.
func DecodeTuples(data []byte, c Codec, rowBase, colBase uint32, fn func(src, dst uint32)) error {
	var src, dst [V3BlockTuples]uint32
	for rest := data; len(rest) > 0; {
		n, next, err := DecodeBlock(rest, c, rowBase, colBase, &src, &dst)
		if err != nil {
			return fmt.Errorf("tile: decode at byte %d: %w", len(data)-len(rest), err)
		}
		for i := 0; i < n; i++ {
			fn(src[i], dst[i])
		}
		rest = next
	}
	return nil
}

// SplitViews appends to views consecutive sub-slices of one tile's data,
// each at most chunkBytes long and each decodable on its own, and returns
// the extended slice; the views alias data and together cover it exactly.
// Fixed-width codecs cut at tuple boundaries (chunkBytes is rounded down
// to a whole number of tuples, never below one); v3 cuts at decode-block
// boundaries — every block restarts the delta chains — so a view exceeds
// chunkBytes only when a single block does. A tile that already fits, a
// non-positive chunkBytes, or corrupt v3 framing (whose decode will then
// report the corruption) yield data as one view.
func SplitViews(views [][]byte, data []byte, c Codec, chunkBytes int64) [][]byte {
	n := int64(len(data))
	if chunkBytes <= 0 || n <= chunkBytes {
		return append(views, data)
	}
	if c == CodecV3 {
		return splitV3(views, data, int(chunkBytes))
	}
	tb := c.TupleBytes()
	chunkBytes = max(chunkBytes-chunkBytes%tb, tb)
	for off := int64(0); off < n; off += chunkBytes {
		views = append(views, data[off:min(off+chunkBytes, n)])
	}
	return views
}

// splitV3 walks the block framing without decoding payloads and closes a
// view whenever the next block would push it past chunkBytes.
func splitV3(views [][]byte, data []byte, chunkBytes int) [][]byte {
	base := len(views)
	viewStart, pos := 0, 0
	for pos < len(data) {
		_, rest, err := v3Frame(data[pos:])
		if err != nil {
			return append(views[:base], data)
		}
		next := len(data) - len(rest)
		if next-viewStart > chunkBytes && pos > viewStart {
			views = append(views, data[viewStart:pos])
			viewStart = pos
		}
		pos = next
	}
	return append(views, data[viewStart:])
}
