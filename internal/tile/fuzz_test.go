package tile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Fuzz targets for every on-disk parser: corrupted files must produce
// errors, never panics or silent acceptance of inconsistent state.

func FuzzMetaParse(f *testing.F) {
	good, _ := json.Marshal(&Meta{
		Magic: Magic, Version: Version, Name: "x",
		NumVertices: 8, NumStored: 9, NumOriginal: 9,
		TileBits: 2, GroupQ: 1, Half: true, SNB: true,
	})
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"GSTORE-TILES","version":1}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := filepath.Join(dir, "g")
		if err := os.WriteFile(p+".meta", data, 0o644); err != nil {
			t.Skip()
		}
		m, err := readMeta(p)
		if err != nil {
			return
		}
		// Anything accepted must satisfy the validated invariants.
		if m.Magic != Magic || (m.Version != Version && m.Version != VersionV3) ||
			m.NumVertices == 0 ||
			m.TileBits == 0 || m.TileBits > 16 || (m.Directed && m.Half) {
			t.Fatalf("invalid meta accepted: %+v", m)
		}
		// A header may only be accepted with an intact manifest.
		if m.Manifest == nil {
			t.Fatalf("meta accepted without manifest: %+v", m)
		}
	})
}

func FuzzStartFile(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(make([]byte, 16), 1)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, 1)
	f.Fuzz(func(t *testing.T, data []byte, numTiles int) {
		if numTiles < 0 || numTiles > 1024 {
			t.Skip()
		}
		start, err := parseStart(data, "s", numTiles)
		if err != nil {
			return
		}
		if len(start) != numTiles+1 || start[0] != 0 {
			t.Fatalf("invalid start accepted: len=%d first=%d", len(start), start[0])
		}
		for i := 1; i < len(start); i++ {
			if start[i] < start[i-1] {
				t.Fatalf("non-monotonic start accepted at %d", i)
			}
		}
	})
}

func FuzzDegreeFile(f *testing.F) {
	tab, _ := EncodeDegrees([]uint32{1, 2, 70000, 3})
	f.Add(encodeDegreeFile(tab), 4, true)
	f.Add(encodePlainDegreeFile([]uint32{1, 2, 3}), 3, false)
	f.Add([]byte{}, 4, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 2, false)
	f.Fuzz(func(t *testing.T, data []byte, numVertices int, compact bool) {
		if numVertices < 0 || numVertices > 4096 {
			t.Skip()
		}
		format := "plain"
		if compact {
			format = "compact"
		}
		src, err := decodeDegreeFile(data, numVertices, format)
		if err != nil {
			return
		}
		// Accepted tables must answer every vertex without panicking.
		for v := 0; v < numVertices; v++ {
			_ = src.Degree(uint32(v))
		}
	})
}

func FuzzDecodeTuples(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(CodecSNB))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(CodecRaw))
	f.Add([]byte{1}, uint8(CodecSNB))
	f.Add(AppendV3(nil, []uint32{0, 1, 17, 300}, 12), uint8(CodecV3))
	f.Add([]byte{3, 1, 0}, uint8(CodecV3)) // truncated frame
	f.Fuzz(func(t *testing.T, data []byte, codec uint8) {
		c := Codec(codec % 3)
		// Same verdict and tuple sequence as the closure decoders the
		// block decoder replaced (and, block by block, as the binary.Uvarint
		// v3 decoder; from a copy that ends where its allocation ends) — on
		// the input as a whole and on every view the splitter cuts it into.
		whole, err := requireSameDecode(t, "fuzz input", data, c, 64, 128)
		n := len(whole)
		if err == nil {
			for _, cb := range []int64{1, 16, 700} {
				var got []uint64
				for i, v := range SplitViews(nil, data, c, cb) {
					tuples, _ := requireSameDecode(t, fmt.Sprintf("chunk %d view %d", cb, i), v, c, 64, 128)
					got = append(got, tuples...)
				}
				if !reflect.DeepEqual(got, whole) {
					t.Fatalf("chunk %d: views decode to %d tuples, the whole input to %d, or they differ", cb, len(got), n)
				}
			}
		}
		switch c {
		case CodecV3:
			// Arbitrary bytes may or may not frame; either way no panic,
			// and a tile the decoder accepts must pass the cheap framing
			// walk the engine runs (the walk alone cannot see varint
			// damage inside a well-framed payload).
			if _, ferr := Tuples(data, CodecV3); err == nil && ferr != nil {
				t.Fatalf("decodable data fails Tuples: %v", ferr)
			}
		default:
			w := int(c.TupleBytes())
			if err == nil && n != len(data)/w {
				t.Fatalf("decoded %d tuples from %d bytes", n, len(data))
			}
			if err != nil && len(data)%w == 0 {
				t.Fatalf("aligned data rejected: %v", err)
			}
		}
	})
}

// FuzzV3RoundTrip encodes arbitrary offset pairs at several tile widths
// and requires the decode to return exactly the sorted input.
func FuzzV3RoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 3}, uint8(12))
	f.Add([]byte{9, 9}, uint8(4))
	f.Add([]byte{}, uint8(16))
	f.Fuzz(func(t *testing.T, raw []byte, bits uint8) {
		switch bits {
		case 4, 12, 16:
		default:
			t.Skip()
		}
		mask := uint32(1)<<bits - 1
		var keys []uint32
		for i := 0; i+2 <= len(raw); i += 2 {
			so := (uint32(raw[i]) * 0x9e37) & mask
			do := (uint32(raw[i+1]) * 0x85eb) & mask
			keys = append(keys, V3Key(so, do, uint(bits)))
		}
		want := append([]uint32(nil), keys...)
		data := AppendV3(nil, keys, uint(bits))
		if _, err := Tuples(data, CodecV3); err != nil {
			t.Fatalf("encoder produced invalid framing: %v", err)
		}
		// Decoded from a tight copy and compared block by block with the
		// binary.Uvarint decoder (see blockDecode).
		tuples, err := requireSameDecode(t, "round trip", data, CodecV3, 0, 0)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		var got []uint32
		for _, e := range tuples {
			got = append(got, V3Key(uint32(e>>32), uint32(e), uint(bits)))
		}
		sortU32(want)
		if len(got) != len(want) {
			t.Fatalf("round trip: %d tuples in, %d out", len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tuple %d: got key %#x want %#x", i, got[i], want[i])
			}
		}
		// Chunking must partition the data into whole blocks, each view
		// decoding exactly as the closure decoder would.
		views := SplitViews(nil, data, CodecV3, 16)
		total := 0
		for i, v := range views {
			if _, err := Tuples(v, CodecV3); err != nil {
				t.Fatalf("chunk not block-aligned: %v", err)
			}
			requireSameDecode(t, fmt.Sprintf("view %d", i), v, CodecV3, 0, 0)
			total += len(v)
		}
		if total != len(data) {
			t.Fatalf("chunks cover %d of %d bytes", total, len(data))
		}
	})
}

// FuzzV3Corrupt flips bytes in valid encodings: decode must reach the
// closure and binary.Uvarint decoders' verdict (error, or tuples inside the
// field sanity bounds), never panic and never look past the input's end.
func FuzzV3Corrupt(f *testing.F) {
	seed := AppendV3(nil, []uint32{0, 5, 5, 1 << 20, 1<<24 | 9}, 12)
	f.Add(seed, 0, uint8(0xff))
	f.Add(seed, 1, uint8(0x80))
	f.Fuzz(func(t *testing.T, data []byte, pos int, xor uint8) {
		if len(data) == 0 || xor == 0 {
			t.Skip()
		}
		mut := append([]byte(nil), data...)
		mut[((pos%len(mut))+len(mut))%len(mut)] ^= xor
		requireSameDecode(t, "corrupted tile", mut, CodecV3, 0, 0)
		_, _ = Tuples(mut, CodecV3)
		total := 0
		for _, v := range SplitViews(nil, mut, CodecV3, 8) {
			total += len(v)
		}
		if total != len(mut) {
			t.Fatalf("views cover %d of %d bytes", total, len(mut))
		}
	})
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
