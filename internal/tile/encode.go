package tile

import "fmt"

// The SNB (smallest number of bits) tuple encoding, §IV-B: inside tile
// [i,j] every source vertex lies in [i*2^b, (i+1)*2^b) and every
// destination in [j*2^b, (j+1)*2^b), so the high bits are implied by the
// tile coordinates and only the low b bits of each endpoint are stored.
// With the paper's b=16 a tuple is 4 bytes: uint16 src offset, uint16 dst
// offset, little endian.

// Compact degree encoding, §IV-C: each vertex gets a 2-byte entry. If the
// degree is below 2^15 it is stored directly with the MSB clear; otherwise
// the MSB is set and the low 15 bits index an overflow array holding the
// full 32-bit degree. The paper notes the optimization applies only while
// the number of large-degree vertices stays below 2^15.

const (
	degreeEscape   = uint16(0x8000)
	maxSmallDegree = uint32(0x7fff)
	maxOverflow    = 1 << 15
)

// DegreeSource answers degree queries for the algorithms that need them
// (PageRank divides by out-degree; §IV-C). Implementations are the compact
// DegreeTable and the PlainDegrees fallback.
type DegreeSource interface {
	Degree(v uint32) uint32
	SizeBytes() int64
}

// PlainDegrees is the uncompressed fallback used when a graph has too many
// high-degree vertices for the compact encoding.
type PlainDegrees []uint32

// Degree returns the degree of vertex v.
func (p PlainDegrees) Degree(v uint32) uint32 { return p[v] }

// SizeBytes reports the 4-bytes-per-vertex footprint.
func (p PlainDegrees) SizeBytes() int64 { return int64(len(p)) * 4 }

// DegreeTable is the in-memory form of a compact degree array.
type DegreeTable struct {
	Small    []uint16
	Overflow []uint32
}

// ErrDegreeOverflow reports that a graph has too many high-degree vertices
// for the compact encoding; callers fall back to a plain uint32 array.
var ErrDegreeOverflow = fmt.Errorf("tile: more than %d vertices exceed degree %d", maxOverflow, maxSmallDegree)

// EncodeDegrees builds the compact representation of deg.
func EncodeDegrees(deg []uint32) (*DegreeTable, error) {
	t := &DegreeTable{Small: make([]uint16, len(deg))}
	for v, d := range deg {
		if d <= maxSmallDegree {
			t.Small[v] = uint16(d)
			continue
		}
		if len(t.Overflow) >= maxOverflow {
			return nil, ErrDegreeOverflow
		}
		t.Small[v] = degreeEscape | uint16(len(t.Overflow))
		t.Overflow = append(t.Overflow, d)
	}
	return t, nil
}

// Degree returns the degree of vertex v.
func (t *DegreeTable) Degree(v uint32) uint32 {
	s := t.Small[v]
	if s&degreeEscape == 0 {
		return uint32(s)
	}
	return t.Overflow[s&^degreeEscape]
}

// Decode expands the table back into a plain slice.
func (t *DegreeTable) Decode() []uint32 {
	out := make([]uint32, len(t.Small))
	for v := range t.Small {
		out[v] = t.Degree(uint32(v))
	}
	return out
}

// SizeBytes reports the storage footprint of the compact encoding.
func (t *DegreeTable) SizeBytes() int64 {
	return int64(len(t.Small))*2 + int64(len(t.Overflow))*4
}
