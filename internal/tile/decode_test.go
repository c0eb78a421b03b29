package tile

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// refDecodeTuples is the closure-per-tuple decoder the block decoder
// replaced, kept verbatim as the oracle: DecodeBlock must accept exactly
// the inputs it accepts and yield exactly its tuple sequence.
func refDecodeTuples(data []byte, c Codec, rowBase, colBase uint32, fn func(src, dst uint32)) error {
	switch c {
	case CodecSNB:
		if len(data)%SNBTupleBytes != 0 {
			return fmt.Errorf("%d bytes is not a whole number of SNB tuples", len(data))
		}
		for i := 0; i < len(data); i += SNBTupleBytes {
			s, d := getSNB(data[i:])
			fn(rowBase+uint32(s), colBase+uint32(d))
		}
		return nil
	case CodecV3:
		return refDecodeV3(data, rowBase, colBase, fn)
	}
	if len(data)%RawTupleBytes != 0 {
		return fmt.Errorf("%d bytes is not a whole number of raw tuples", len(data))
	}
	for i := 0; i < len(data); i += RawTupleBytes {
		s, d := getRaw(data[i:])
		fn(s, d)
	}
	return nil
}

func refDecodeV3(data []byte, rowBase, colBase uint32, fn func(src, dst uint32)) error {
	for block := 0; len(data) > 0; block++ {
		payload, rest, err := v3Frame(data)
		if err != nil {
			return err
		}
		count, n := binary.Uvarint(payload)
		if n <= 0 || count == 0 || count > V3BlockTuples {
			return fmt.Errorf("block %d has bad tuple count %d", block, count)
		}
		payload = payload[n:]
		prevSrc, prevDst := uint32(0), uint32(0)
		for i := uint64(0); i < count; i++ {
			srcDelta, n := binary.Uvarint(payload)
			if n <= 0 || srcDelta > v3MaxField {
				return fmt.Errorf("block %d tuple %d has corrupt source delta", block, i)
			}
			payload = payload[n:]
			dstField, n := binary.Uvarint(payload)
			if n <= 0 || dstField > v3MaxField {
				return fmt.Errorf("block %d tuple %d has corrupt destination field", block, i)
			}
			payload = payload[n:]
			src := prevSrc + uint32(srcDelta)
			dst := uint32(dstField)
			if i > 0 && srcDelta == 0 {
				dst += prevDst
			}
			if dst > v3MaxField {
				return fmt.Errorf("block %d tuple %d destination offset out of range", block, i)
			}
			fn(rowBase+src, colBase+dst)
			prevSrc, prevDst = src, dst
		}
		if len(payload) != 0 {
			return fmt.Errorf("block %d has %d trailing bytes", block, len(payload))
		}
		data = rest
	}
	return nil
}

// refDecodeV3Block is decodeV3Block as it was before the word-at-a-time
// fast path: two binary.Uvarint calls per tuple. It is the oracle for one
// block — the same (n, rest, src, dst), or the same rejection.
func refDecodeV3Block(data []byte, rowBase, colBase uint32, src, dst *[V3BlockTuples]uint32) (int, []byte, error) {
	payload, rest, err := v3Frame(data)
	if err != nil {
		return 0, nil, err
	}
	count, k := binary.Uvarint(payload)
	if k <= 0 || count == 0 || count > V3BlockTuples {
		return 0, nil, fmt.Errorf("bad tuple count %d", count)
	}
	payload = payload[k:]
	n := int(count)
	prevSrc, prevDst := uint32(0), uint32(0)
	for i := 0; i < n; i++ {
		srcDelta, k := binary.Uvarint(payload)
		if k <= 0 || srcDelta > v3MaxField {
			return 0, nil, fmt.Errorf("tuple %d has corrupt source delta", i)
		}
		payload = payload[k:]
		dstField, k := binary.Uvarint(payload)
		if k <= 0 || dstField > v3MaxField {
			return 0, nil, fmt.Errorf("tuple %d has corrupt destination field", i)
		}
		payload = payload[k:]
		s := prevSrc + uint32(srcDelta)
		d := uint32(dstField)
		if i > 0 && srcDelta == 0 {
			d += prevDst
		}
		if d > v3MaxField {
			return 0, nil, fmt.Errorf("tuple %d destination offset out of range", i)
		}
		src[i], dst[i] = rowBase+s, colBase+d
		prevSrc, prevDst = s, d
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("%d trailing bytes after %d tuples", len(payload), n)
	}
	return n, rest, nil
}

// tight returns a copy of data whose capacity equals its length and that
// ends where its allocation ends, so a decoder that looks past len(data)
// — which a slice expression permits up to the capacity — panics instead
// of reading a neighbour's bytes unnoticed.
func tight(data []byte) []byte {
	const lead = 16
	buf := make([]byte, lead+len(data))
	copy(buf[lead:], data)
	return buf[lead:len(buf):len(buf)]
}

// blockDecode drives DecodeBlock the way the engine's workers do and
// collects the edges; it also checks the per-call contract (batch size,
// progress, nothing delivered on error) and, block by block, that a v3
// decode matches refDecodeV3Block. The input is decoded from a tight copy.
func blockDecode(t testing.TB, data []byte, c Codec, rowBase, colBase uint32) ([]uint64, error) {
	t.Helper()
	data = tight(data)
	var src, dst, wantSrc, wantDst [V3BlockTuples]uint32
	var out []uint64
	for len(data) > 0 {
		n, rest, err := DecodeBlock(data, c, rowBase, colBase, &src, &dst)
		if c == CodecV3 {
			wantN, wantRest, wantErr := refDecodeV3Block(data, rowBase, colBase, &wantSrc, &wantDst)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("v3 block at %d bytes from the end: err = %v, Uvarint decoder err = %v", len(data), err, wantErr)
			}
			if err == nil && (n != wantN || len(rest) != len(wantRest) ||
				!reflect.DeepEqual(src[:n], wantSrc[:n]) || !reflect.DeepEqual(dst[:n], wantDst[:n])) {
				t.Fatalf("v3 block at %d bytes from the end: %d tuples and %d bytes left, Uvarint decoder %d and %d, or the tuples differ",
					len(data), n, len(rest), wantN, len(wantRest))
			}
		}
		if err != nil {
			if n != 0 {
				t.Fatalf("DecodeBlock returned %d tuples with error %v", n, err)
			}
			return out, err
		}
		if n < 1 || n > V3BlockTuples || len(rest) >= len(data) {
			t.Fatalf("DecodeBlock made no progress: n=%d, %d of %d bytes remain", n, len(rest), len(data))
		}
		for i := 0; i < n; i++ {
			out = append(out, uint64(src[i])<<32|uint64(dst[i]))
		}
		data = rest
	}
	return out, nil
}

func refDecode(data []byte, c Codec, rowBase, colBase uint32) ([]uint64, error) {
	var out []uint64
	err := refDecodeTuples(data, c, rowBase, colBase, func(s, d uint32) {
		out = append(out, uint64(s)<<32|uint64(d))
	})
	return out, err
}

// requireSameDecode asserts the block decoder and the reference agree on
// data: same verdict, and on acceptance the same tuple sequence. It
// returns the block decoder's outcome.
func requireSameDecode(t testing.TB, what string, data []byte, c Codec, rowBase, colBase uint32) ([]uint64, error) {
	t.Helper()
	want, wantErr := refDecode(data, c, rowBase, colBase)
	got, gotErr := blockDecode(t, data, c, rowBase, colBase)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s (%v, %d bytes): block decoder err = %v, reference err = %v", what, c, len(data), gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (%v, %d bytes): block decoder yields %d tuples, reference %d, or they differ",
			what, c, len(data), len(got), len(want))
	}
	// The callback form must agree too; it is the same decoder.
	var viaFn []uint64
	fnErr := DecodeTuples(data, c, rowBase, colBase, func(s, d uint32) {
		viaFn = append(viaFn, uint64(s)<<32|uint64(d))
	})
	if (fnErr == nil) != (wantErr == nil) || (fnErr == nil && !reflect.DeepEqual(viaFn, want)) {
		t.Fatalf("%s (%v): DecodeTuples err = %v, reference err = %v", what, c, fnErr, wantErr)
	}
	return got, gotErr
}

// encodeTuples produces one tile's bytes in codec c from in-tile offsets
// (12-bit tile width, bases rowBase/colBase for the raw codec).
func encodeTuples(c Codec, offs [][2]uint32, rowBase, colBase uint32) []byte {
	switch c {
	case CodecSNB:
		out := make([]byte, len(offs)*SNBTupleBytes)
		for i, o := range offs {
			putSNB(out[i*SNBTupleBytes:], uint16(o[0]), uint16(o[1]))
		}
		return out
	case CodecV3:
		keys := make([]uint32, len(offs))
		for i, o := range offs {
			keys[i] = V3Key(o[0], o[1], 12)
		}
		return AppendV3(nil, keys, 12)
	}
	out := make([]byte, len(offs)*RawTupleBytes)
	for i, o := range offs {
		putRaw(out[i*RawTupleBytes:], rowBase+o[0], colBase+o[1])
	}
	return out
}

// TestDecodeBlockMatchesReference pins the block decoder and the
// codec-aware splitter against the closure decoders they replaced: whole
// tiles and every view of every chunk size decode to the reference's
// tuple sequence, and the views tile the data exactly without copying.
func TestDecodeBlockMatchesReference(t *testing.T) {
	const rowBase, colBase = 3 << 12, 5 << 12
	for _, c := range []Codec{CodecSNB, CodecRaw, CodecV3} {
		for _, count := range []int{0, 1, 2, V3BlockTuples - 1, V3BlockTuples, V3BlockTuples + 1, 3000} {
			offs := make([][2]uint32, count)
			for i := range offs {
				offs[i] = [2]uint32{uint32(i) / 7, (uint32(i) * 13) % 4093}
			}
			data := encodeTuples(c, offs, rowBase, colBase)
			what := fmt.Sprintf("%d tuples", count)
			whole, _ := requireSameDecode(t, what, data, c, rowBase, colBase)
			if len(whole) != count {
				t.Fatalf("%s (%v): decoded %d tuples", what, c, len(whole))
			}
			// 1 rounds up to one tuple (fixed width) or one block (v3);
			// 7 and 33 are not tuple multiples; 700 and 2000 straddle v3
			// block sizes so some views are single oversized blocks.
			for _, cb := range []int64{-1, 0, 1, 4, 7, 8, 33, 700, 2000, 1 << 20} {
				prefix := [][]byte{{0xee}}
				views := SplitViews(prefix, data, c, cb)
				if len(views) < 2 || &views[0][0] != &prefix[0][0] {
					t.Fatalf("%s (%v) chunk %d: SplitViews did not append to the caller's slice", what, c, cb)
				}
				views = views[1:]
				if (cb <= 0 || int64(len(data)) <= cb) && len(views) != 1 {
					t.Fatalf("%s (%v) chunk %d: %d views, want the whole tile as one", what, c, cb, len(views))
				}
				var got []uint64
				pos := 0
				for i, v := range views {
					if len(v) > 0 && &v[0] != &data[pos] {
						t.Fatalf("%s (%v) chunk %d: view %d does not alias the data at %d", what, c, cb, i, pos)
					}
					pos += len(v)
					tuples, _ := requireSameDecode(t, fmt.Sprintf("%s chunk %d view %d", what, cb, i), v, c, rowBase, colBase)
					got = append(got, tuples...)
					if cb <= 0 || len(views) == 1 {
						continue
					}
					if tb := c.TupleBytes(); tb > 0 {
						want := max(cb-cb%tb, tb)
						if int64(len(v)) > want || (i < len(views)-1 && int64(len(v)) != want) {
							t.Fatalf("%s (%v) chunk %d: view %d has %d bytes, want %d", what, c, cb, i, len(v), want)
						}
						if cb <= tb && len(tuples) != 1 {
							t.Fatalf("%s (%v) chunk %d: view %d holds %d tuples, want 1", what, c, cb, i, len(tuples))
						}
					} else if int64(len(v)) > cb {
						// A v3 view exceeds chunkBytes only when a single block does.
						if _, rest, err := v3Frame(v); err != nil || len(rest) != 0 {
							t.Fatalf("%s chunk %d: oversized view %d is not exactly one block (err %v, %d bytes beyond it)",
								what, cb, i, err, len(rest))
						}
					}
				}
				if pos != len(data) {
					t.Fatalf("%s (%v) chunk %d: views cover %d of %d bytes", what, c, cb, pos, len(data))
				}
				if !reflect.DeepEqual(got, whole) {
					t.Fatalf("%s (%v) chunk %d: concatenated views decode differently from the whole tile", what, c, cb)
				}
			}
		}
	}
}

// TestDecodeBlockRejectsWhatReferenceRejects feeds both decoders damaged
// input: truncated fixed-width data and v3 tiles with broken framing or
// varints. The verdicts must match and, for these inputs, be "reject".
func TestDecodeBlockRejectsWhatReferenceRejects(t *testing.T) {
	good := AppendV3(nil, []uint32{V3Key(1, 2, 12), V3Key(1, 9, 12), V3Key(4, 0, 12)}, 12)
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	tooBig := binary.AppendUvarint(nil, v3MaxField+1)
	cases := []struct {
		name string
		c    Codec
		data []byte
	}{
		{"snb one byte short", CodecSNB, make([]byte, 7)},
		{"snb one byte long", CodecSNB, make([]byte, 4*V3BlockTuples+1)},
		{"raw half tuple", CodecRaw, make([]byte, 12)},
		{"raw one byte", CodecRaw, make([]byte, 1)},
		{"v3 truncated frame", CodecV3, good[:len(good)-1]},
		{"v3 frame longer than data", CodecV3, []byte{9, 1, 0, 0}},
		{"v3 zero-length frame", CodecV3, []byte{0}},
		{"v3 overlong length prefix", CodecV3, overlong},
		{"v3 zero tuple count", CodecV3, v3Block(0)},
		{"v3 count above block size", CodecV3, v3Block(binary.AppendUvarint(nil, V3BlockTuples+1)...)},
		{"v3 count beyond payload", CodecV3, v3Block(2, 1, 1)},
		{"v3 trailing payload bytes", CodecV3, v3Block(1, 1, 1, 0)},
		{"v3 unterminated varint", CodecV3, v3Block(1, 1, 0x80)},
		{"v3 source delta out of range", CodecV3, v3Block(append(append([]byte{1}, tooBig...), 1)...)},
		{"v3 destination out of range", CodecV3, v3Block(append([]byte{1, 1}, tooBig...)...)},
		{"v3 garbage after a good block", CodecV3, append(append([]byte(nil), good...), 0xff)},
	}
	for _, tc := range cases {
		if _, err := requireSameDecode(t, tc.name, tc.data, tc.c, 64, 128); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// Splitting damaged data must neither panic nor lose bytes.
		total := 0
		for _, v := range SplitViews(nil, tc.data, tc.c, 4) {
			total += len(v)
		}
		if total != len(tc.data) {
			t.Errorf("%s: views cover %d of %d bytes", tc.name, total, len(tc.data))
		}
	}
	// Flipping any single byte of a valid v3 tile: same verdict either way.
	for pos := range good {
		for _, xor := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), good...)
			mut[pos] ^= xor
			requireSameDecode(t, fmt.Sprintf("v3 byte %d ^ %#x", pos, xor), mut, CodecV3, 64, 128)
		}
	}
}

// v3Block frames payload as one v3 block.
func v3Block(payload ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// TestV3FastPathMatchesUvarintDecoder walks the word-at-a-time decoder
// through every tuple shape the encoder emits — tile widths whose fields
// take one, two and three varint bytes, block-boundary tuple counts, one
// long source run, a new run per tuple, and a mix — against the
// binary.Uvarint decoder (the comparison is inside blockDecode).
func TestV3FastPathMatchesUvarintDecoder(t *testing.T) {
	for _, bits := range []uint{4, 12, 16} {
		width := uint32(1) << bits
		for _, count := range []int{1, 2, 7, V3BlockTuples - 1, V3BlockTuples, V3BlockTuples + 1} {
			for _, density := range []string{"one run", "new run per tuple", "mixed"} {
				keys := make([]uint32, count)
				for i := range keys {
					var so, do uint32
					switch density {
					case "one run":
						so, do = width-1, uint32(i)*40503%width
					case "new run per tuple": // distinct sources while the width allows
						so, do = uint32(i)*127%width, uint32(i)*40503%width
					default:
						so, do = uint32(i)/5*3%width, uint32(i*i)%width
					}
					keys[i] = V3Key(so, do, bits)
				}
				data := AppendV3(nil, keys, bits)
				what := fmt.Sprintf("bits %d, %d tuples, %s", bits, count, density)
				got, err := requireSameDecode(t, what, data, CodecV3, 7<<bits, 9<<bits)
				if err != nil || len(got) != count {
					t.Fatalf("%s: decoded %d tuples, err %v", what, len(got), err)
				}
				// Every truncation is rejected or decodes to a prefix, as the
				// Uvarint decoder decides.
				for cut := 0; cut < len(data); cut += 1 + len(data)/97 {
					requireSameDecode(t, fmt.Sprintf("%s cut at %d", what, cut), data[:cut], CodecV3, 0, 0)
				}
			}
		}
	}
}

// TestV3TailLengths builds blocks from every mix of 2- to 6-byte tuples and
// checks that the hand-over from the 64-bit loads to the byte-wise tail
// happens at every distance from the payload's end it can — 2 to 7 bytes: a
// load needs 8 bytes and a tuple takes at most 6 of them — as well as not
// at all (payloads under 8 bytes), each decoding like the Uvarint decoder.
func TestV3TailLengths(t *testing.T) {
	shapes := [][2]uint32{{1, 5}, {0, 300}, {200, 7}, {300, 20000}, {20000, 20000}} // 2, 3, 3, 5, 6 bytes
	seen := map[int]bool{}
	for count := 1; count <= 12; count++ {
		for pick := 0; pick < 125; pick++ {
			payload := binary.AppendUvarint(nil, uint64(count))
			p, lens := pick, make([]int, count)
			for i := 0; i < count; i++ {
				sh := shapes[p%len(shapes)]
				p = p/len(shapes) + i
				before := len(payload)
				payload = binary.AppendUvarint(binary.AppendUvarint(payload, uint64(sh[0])), uint64(sh[1]))
				lens[i] = len(payload) - before
			}
			pos, i := 1, 0
			for ; i < count && pos+8 <= len(payload); i++ {
				pos += lens[i]
			}
			if i > 0 {
				seen[len(payload)-pos] = true
			}
			if _, err := requireSameDecode(t, fmt.Sprintf("%d tuples, pick %d", count, pick), v3Block(payload...), CodecV3, 64, 128); err != nil {
				t.Fatalf("%d tuples, pick %d: %v", count, pick, err)
			}
		}
	}
	for tail := 2; tail < 8; tail++ {
		if !seen[tail] {
			t.Errorf("no block left %d bytes to the tail loop", tail)
		}
	}
}

// TestV3VarintEdgeCases feeds the decoder fields no encoder writes but
// binary.Uvarint has an opinion on — non-canonical, over-long, overflowing,
// out of range — first in a block (under the 64-bit loads) and last in it
// (in the byte-wise tail). Whatever the Uvarint decoder says, goes.
func TestV3VarintEdgeCases(t *testing.T) {
	fields := map[string][]byte{
		"zero in two bytes":        {0x80, 0x00},
		"one in three bytes":       {0x81, 0x80, 0x00},
		"zero in four bytes":       {0x80, 0x80, 0x80, 0x00},
		"five in ten bytes":        {0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		"eleven bytes":             {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"overflows 64 bits":        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"v3MaxField":               binary.AppendUvarint(nil, v3MaxField),
		"v3MaxField + 1":           binary.AppendUvarint(nil, v3MaxField+1),
		"largest three-byte value": {0xff, 0xff, 0x7f},
		"2^21 in four bytes":       {0x80, 0x80, 0x80, 0x01},
		"unterminated":             {0x80, 0x80},
	}
	pad := []byte{1, 1, 0, 2, 0, 3, 1, 4, 0, 5} // five 2-byte tuples: 10 bytes
	for name, f := range fields {
		for _, where := range []string{"source first", "destination first", "source last", "destination last"} {
			payload := []byte{6} // six tuples: the odd one and the padding
			odd := append(append([]byte(nil), f...), 1)
			if where[0] == 'd' {
				odd = append([]byte{1}, f...)
			}
			if where[len(where)-5:] == "first" {
				payload = append(append(payload, odd...), pad...)
			} else {
				payload = append(append(payload, pad...), odd...)
			}
			requireSameDecode(t, name+", "+where, v3Block(payload...), CodecV3, 64, 128)
		}
	}
	// A run whose destination deltas add up past v3MaxField: every field is
	// in range, the sum is not.
	big := binary.AppendUvarint(nil, v3MaxField-1)
	run := append(append([]byte{4, 0}, big...), 0, 1, 0, 1, 0, 1, 9, 9, 9, 9, 9, 9)
	if _, err := requireSameDecode(t, "destination sum out of range", v3Block(run[:len(run)-6]...), CodecV3, 0, 0); err == nil {
		t.Error("destination sum out of range: accepted")
	}
}

// TestV3EveryByteFlip flips every bit, and every whole byte, of a
// multi-block tile with three-byte fields: same verdict and tuples as the
// Uvarint decoder each time.
func TestV3EveryByteFlip(t *testing.T) {
	keys := make([]uint32, V3BlockTuples+9)
	for i := range keys {
		keys[i] = V3Key(uint32(i)*131%65536, uint32(i)*40503%65536, 16)
	}
	good := AppendV3(nil, keys, 16)
	mut := make([]byte, len(good))
	for pos := range good {
		for _, xor := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff} {
			copy(mut, good)
			mut[pos] ^= xor
			requireSameDecode(t, fmt.Sprintf("byte %d ^ %#x", pos, xor), mut, CodecV3, 0, 0)
		}
	}
}
