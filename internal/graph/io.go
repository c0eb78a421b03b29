package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary edge-list files use the same layout as the datasets in the paper's
// Table II: a flat sequence of (src, dst) little-endian uint32 pairs,
// 8 bytes per edge. This is the "Edge List" format whose size the tile
// format is compared against.

// EdgeTupleBytes is the on-disk size of one edge in the traditional edge
// list format for graphs with < 2^32 vertices.
const EdgeTupleBytes = 8

// WriteEdgeList writes el.Edges to w in binary edge-list format.
func WriteEdgeList(w io.Writer, el *EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var buf [EdgeTupleBytes]byte
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint32(buf[0:4], e.Src)
		binary.LittleEndian.PutUint32(buf[4:8], e.Dst)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes el to path.
func WriteEdgeListFile(path string, el *EdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, el); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadEdgeList reads a binary edge list from r. numVertices and directed
// describe the graph; they are not stored in the file itself.
func ReadEdgeList(r io.Reader, numVertices uint32, directed bool) (*EdgeList, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	el := &EdgeList{NumVertices: numVertices, Directed: directed}
	var buf [EdgeTupleBytes]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("graph: truncated edge list (partial tuple)")
		}
		if err != nil {
			return nil, err
		}
		el.Edges = append(el.Edges, Edge{
			Src: binary.LittleEndian.Uint32(buf[0:4]),
			Dst: binary.LittleEndian.Uint32(buf[4:8]),
		})
	}
	return el, nil
}

// EdgeListSizeBytes reports the on-disk size of the traditional edge list
// representation (Table II accounting): |E| tuples of 8 bytes, where an
// undirected graph stores every edge twice.
func EdgeListSizeBytes(numEdges int64, directed bool) int64 {
	if directed {
		return numEdges * EdgeTupleBytes
	}
	return 2 * numEdges * EdgeTupleBytes
}
