package delta

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/wal"
)

// On-disk layout next to a base graph at <base>:
//
//	<base>.wal/<%08d>      — WAL segments (see internal/wal)
//	<base>.delta.<%08d>    — delta snapshot generations; only the
//	                         newest is live, older ones are deleted
//	                         after a successful flush
//
// A snapshot is the full delta state as of one WAL sequence number
// ("upto"): per tile, the sorted tuple keys with their desired
// presence; plus the sparse degree overlay. The whole file is covered
// by a CRC32C trailer and written via atomic rename, so a crash
// mid-flush leaves the previous generation (plus the WAL) intact.
//
// Recovery invariant: state(snapshot.upto) + replay(WAL records with
// seq > upto) == state at crash, for every crash point. Records with
// seq <= upto may remain in the WAL (crash between flush and
// truncation) and are skipped idempotently.

const snapshotMagic = "GSTRDLT1"

// walDir returns the WAL directory for a base graph path.
func walDir(base string) string { return base + ".wal" }

// snapshotPath names generation gen.
func snapshotPath(base string, gen int) string {
	return fmt.Sprintf("%s.delta.%08d", base, gen)
}

// listSnapshots returns the snapshot generations present for base,
// ascending.
func listSnapshots(fsys faultfs.FS, base string) ([]int, error) {
	dir, name := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	prefix := name + ".delta."
	var gens []int
	for _, e := range ents {
		var g int
		n := e.Name()
		if len(n) == len(prefix)+8 && n[:len(prefix)] == prefix {
			if _, err := fmt.Sscanf(n[len(prefix):], "%08d", &g); err == nil {
				gens = append(gens, g)
			}
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// encodeSnapshot serializes v (without the trailer).
func encodeSnapshot(v *View) []byte {
	buf := []byte(snapshotMagic)
	var tmp [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(tmp[:], x)
		buf = append(buf, tmp[:8]...)
	}
	u32 := func(x uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], x)
		buf = append(buf, tmp[:4]...)
	}
	u64(v.upto)
	idx := v.TileIndexes()
	u32(uint32(len(idx)))
	for _, di := range idx {
		td := v.tiles[di]
		u32(uint32(di))
		u32(uint32(len(td.keys)))
		for i, k := range td.keys {
			u64(k)
			if td.present[i] {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	u32(uint32(v.deg.nonZero))
	for p, page := range v.deg.pages {
		for i, d := range page {
			if d != 0 {
				u32(uint32(p<<degPageBits | i))
				u32(uint32(d))
			}
		}
	}
	return buf
}

// writeSnapshot durably writes generation gen of view v.
func writeSnapshot(fsys faultfs.FS, base string, gen int, v *View) error {
	payload := encodeSnapshot(v)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], tile.Checksum(payload))
	return fsutil.WriteFileFS(fsys, snapshotPath(base, gen), append(payload, tr[:]...), 0o644)
}

// removeSnapshotsBelow deletes generations older than keep.
func removeSnapshotsBelow(fsys faultfs.FS, base string, keep int) error {
	gens, err := listSnapshots(fsys, base)
	if err != nil {
		return err
	}
	removed := false
	for _, g := range gens {
		if g >= keep {
			continue
		}
		if err := fsys.Remove(snapshotPath(base, g)); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		dir := filepath.Dir(base)
		return fsutil.SyncDirFS(fsys, dir)
	}
	return nil
}

// parseSnapshot decodes and validates a snapshot file's bytes. g
// supplies the layout the keys are checked against and the vertex count
// for the degree overlay; when nil (structural fsck on an unopenable
// graph) the overlay stays empty. The tiles' masked positions are not
// in the file: Store.maskBase recomputes them from the base.
func parseSnapshot(data []byte, g *tile.Graph) (*View, error) {
	if len(data) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("truncated: %d bytes", len(data))
	}
	payload, tr := data[:len(data)-4], data[len(data)-4:]
	if got, want := tile.Checksum(payload), binary.LittleEndian.Uint32(tr); got != want {
		return nil, fmt.Errorf("crc32c %08x does not match trailer %08x (corrupt snapshot)", got, want)
	}
	if string(payload[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", payload[:len(snapshotMagic)])
	}
	p := payload[len(snapshotMagic):]
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("truncated body")
		}
		return nil
	}
	if err := need(12); err != nil {
		return nil, err
	}
	v := &View{
		upto:  binary.LittleEndian.Uint64(p),
		tiles: make(map[int]*TileDelta),
	}
	ntiles := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	prevDi := -1
	for t := 0; t < ntiles; t++ {
		if err := need(8); err != nil {
			return nil, err
		}
		di := int(binary.LittleEndian.Uint32(p))
		nkeys := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if di <= prevDi {
			return nil, fmt.Errorf("tile indexes not ascending at %d", di)
		}
		prevDi = di
		if g != nil && di >= g.Layout.NumTiles() {
			return nil, fmt.Errorf("tile index %d outside layout (%d tiles)", di, g.Layout.NumTiles())
		}
		keys := make([]uint64, 0, nkeys)
		present := make([]bool, 0, nkeys)
		var prevKey uint64
		for i := 0; i < nkeys; i++ {
			if err := need(9); err != nil {
				return nil, err
			}
			k := binary.LittleEndian.Uint64(p)
			present = append(present, p[8] != 0)
			p = p[9:]
			if i > 0 && k <= prevKey {
				return nil, fmt.Errorf("tile %d: keys not ascending", di)
			}
			prevKey = k
			keys = append(keys, k)
			v.maskedKeys++
			if present[i] {
				v.insTuples++
			}
			if g != nil {
				src, dst := uint32(k>>32), uint32(k)
				c := g.Layout.CoordAt(di)
				rLo, rHi := g.Layout.VertexRange(c.Row)
				cLo, cHi := g.Layout.VertexRange(c.Col)
				if src < rLo || src >= rHi || dst < cLo || dst >= cHi {
					return nil, fmt.Errorf("tile %d: key (%d,%d) outside tile vertex ranges", di, src, dst)
				}
			}
		}
		v.tiles[di] = &TileDelta{keys: keys, present: present}
	}
	if err := need(4); err != nil {
		return nil, err
	}
	ndeg := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	prevV := int64(-1)
	owned := make(map[uint32]bool)
	for i := 0; i < ndeg; i++ {
		if err := need(8); err != nil {
			return nil, err
		}
		vx := binary.LittleEndian.Uint32(p)
		d := int32(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if int64(vx) <= prevV {
			return nil, fmt.Errorf("degree overlay vertices not ascending at %d", vx)
		}
		prevV = int64(vx)
		if g != nil {
			if vx >= g.Meta.NumVertices {
				return nil, fmt.Errorf("degree overlay vertex %d outside graph (%d vertices)", vx, g.Meta.NumVertices)
			}
			v.deg.add(vx, d, owned)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after snapshot body", len(p))
	}
	return v, nil
}

// loadNewestSnapshot loads the highest generation for base. It returns
// (nil, 0, nil) when no snapshot exists and the highest generation
// number found (0 if none) so the store continues the sequence. A
// corrupt newest snapshot is an error — snapshots are written
// atomically, so damage means disk corruption, not a crash, and
// silently falling back would resurrect deleted edges.
func loadNewestSnapshot(fsys faultfs.FS, base string, g *tile.Graph) (*View, int, error) {
	gens, err := listSnapshots(fsys, base)
	if err != nil {
		return nil, 0, err
	}
	if len(gens) == 0 {
		return nil, 0, nil
	}
	gen := gens[len(gens)-1]
	data, err := fsys.ReadFile(snapshotPath(base, gen))
	if err != nil {
		return nil, gen, err
	}
	v, err := parseSnapshot(data, g)
	if err != nil {
		return nil, gen, fmt.Errorf("delta: snapshot %s: %w", snapshotPath(base, gen), err)
	}
	return v, gen, nil
}

// WAL record payload: [u64 seq][u32 n] then n × [u8 del][u32 src]
// [u32 dst], little endian.

func encodeRecord(seq uint64, ops []Op) []byte {
	buf := make([]byte, 12+9*len(ops))
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(ops)))
	p := 12
	for _, op := range ops {
		if op.Del {
			buf[p] = 1
		}
		binary.LittleEndian.PutUint32(buf[p+1:], op.Src)
		binary.LittleEndian.PutUint32(buf[p+5:], op.Dst)
		p += 9
	}
	return buf
}

func decodeRecord(payload []byte) (seq uint64, ops []Op, err error) {
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("delta: WAL record of %d bytes is too short", len(payload))
	}
	seq = binary.LittleEndian.Uint64(payload)
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	if len(payload) != 12+9*n {
		return 0, nil, fmt.Errorf("delta: WAL record declares %d ops but carries %d bytes", n, len(payload))
	}
	ops = make([]Op, n)
	p := 12
	for i := range ops {
		ops[i] = Op{
			Del: payload[p] != 0,
			Src: binary.LittleEndian.Uint32(payload[p+1:]),
			Dst: binary.LittleEndian.Uint32(payload[p+5:]),
		}
		p += 9
	}
	return seq, ops, nil
}

// Fsck validates the write-path files next to base offline: every WAL
// segment's record framing and checksums, and every delta snapshot's
// trailer, structure, and (when the base graph opens) key ranges.
// Fatal problems come back as findings in the tile report's style;
// tolerated anomalies (a torn WAL tail, which recovery discards by
// design) come back as notes.
func Fsck(base string) (findings []tile.FsckFinding, notes []string) {
	var g *tile.Graph
	if og, err := tile.Open(base); err == nil {
		g = og
		defer og.Close()
	}

	stats, wfind, err := wal.Check(walDir(base))
	if err != nil {
		findings = append(findings, tile.FsckFinding{Section: "wal", Tile: -1, Detail: err.Error()})
	}
	for _, f := range wfind {
		if f.Fatal {
			findings = append(findings, tile.FsckFinding{Section: "wal", Tile: -1, Detail: f.String()})
		} else {
			notes = append(notes, f.String())
		}
	}
	if stats.Segments > 0 {
		notes = append(notes, fmt.Sprintf("wal: %d segments, %d records", stats.Segments, stats.Records))
	}

	gens, err := listSnapshots(faultfs.OS, base)
	if err != nil {
		findings = append(findings, tile.FsckFinding{Section: "delta", Tile: -1, Detail: err.Error()})
		return findings, notes
	}
	for _, gen := range gens {
		path := snapshotPath(base, gen)
		data, err := os.ReadFile(path)
		if err != nil {
			findings = append(findings, tile.FsckFinding{Section: "delta", Tile: -1,
				Detail: fmt.Sprintf("%s: %v", filepath.Base(path), err)})
			continue
		}
		v, err := parseSnapshot(data, g)
		if err != nil {
			findings = append(findings, tile.FsckFinding{Section: "delta", Tile: -1,
				Detail: fmt.Sprintf("%s: %v", filepath.Base(path), err)})
			continue
		}
		notes = append(notes, fmt.Sprintf("delta: generation %d covers seq %d: %d tiles, %d keys",
			gen, v.upto, v.NumTiles(), v.maskedKeys))
	}
	return findings, notes
}
