package core

import (
	"fmt"

	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/tile"
)

// IntegrityError marks a Run failure caused by tile data that reached
// memory with a CRC32C different from the one recorded at conversion
// time — silent corruption on the media or the read path, as opposed to
// a read that failed outright. It names the exact tile so an operator
// can confirm the damage offline with gstore fsck. Servers map it to a
// 5xx distinct from ordinary engine failures.
type IntegrityError struct {
	// Graph is the graph's name from its meta header.
	Graph string
	// Tile is the disk index of the corrupt tile; Row and Col are its
	// grid coordinates.
	Tile     int
	Row, Col uint32
	// Err is the underlying checksum mismatch.
	Err error
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("core: data integrity failure on graph %q tile %d (row %d, col %d): %v",
		e.Graph, e.Tile, e.Row, e.Col, e.Err)
}

// Unwrap lets errors.Is/As reach the underlying checksum error.
func (e *IntegrityError) Unwrap() error { return e.Err }

// verifySegment checks every tile of a freshly loaded segment against
// its recorded CRC32C before the data is handed to workers. A mismatch
// is retried with one synchronous re-read — in-flight corruption (a
// flipped bit on the bus, a bad DMA) goes away on re-read, media rot
// does not — and a second mismatch fails the sweep with *IntegrityError.
// Verification and mismatch counts are attributed to the runs interested
// in each tile.
func (e *Engine) verifySegment(batch []*runState, plan *segmentPlan, seg *mem.Segment) error {
	statMasked := func(mask uint64, f func(*Stats)) {
		for j, r := range batch {
			if mask&(1<<uint(j)) != 0 && !r.finished {
				f(r.stats)
			}
		}
	}
	// A matching CRC is followed by a walk of the tile's framing
	// (tile.Tuples), so a converter bug (or a CRC collision) can never
	// hand workers undecodable data.
	for _, pt := range plan.tiles {
		data := seg.Buf[pt.bufOff : pt.bufOff+pt.n]
		want := e.g.TileChecksum(pt.diskIdx)
		statMasked(pt.mask, func(st *Stats) { st.TilesVerified++ })
		got := tile.Checksum(data)
		var err error
		if got == want {
			if _, err = tile.Tuples(data, e.codec); err == nil {
				continue
			}
		} else {
			statMasked(pt.mask, func(st *Stats) { st.ChecksumMismatches++ })
			off, _ := e.g.TileByteRange(pt.diskIdx)
			if rerr := e.array.ReadSync(off, data); rerr == nil {
				if got = tile.Checksum(data); got == want {
					if _, err = tile.Tuples(data, e.codec); err == nil {
						continue // transient: the re-read came back clean
					}
				}
			}
			if err == nil {
				err = &tile.ChecksumError{Tile: pt.diskIdx, Want: want, Got: got}
			}
		}
		return &IntegrityError{
			Graph: e.g.Meta.Name, Tile: pt.diskIdx, Row: pt.row, Col: pt.col,
			Err: err,
		}
	}
	return nil
}
