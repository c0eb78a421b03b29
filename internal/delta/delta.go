// Package delta adds a write path to converted G-Store graphs in the
// log-structured style of GraphChi-DB and BigSparse: edge mutations are
// made durable in a write-ahead log, applied to an in-memory delta
// keyed by tile, and periodically flushed to a sorted, checksummed
// delta snapshot next to the base graph. A tile's delta is one sorted
// key set with presence flags, plus the positions of the base tuples
// those keys mask. Readers merge base ∪ delta in edge space as they
// decode: masked positions are dropped from each decoded block and the
// present keys are handed over as edges. No tile is re-encoded to be
// read and the base tile files are never rewritten, so the convert-once
// read path (checksums, caching, selective fetch) is untouched. The
// package reaches tile bytes only through the tile package's decoder,
// counter and encoder.
//
// Semantics are those of a simple graph layered over the immutable
// base: an insert ensures the edge is present, a delete ensures it is
// absent (masking every base occurrence). The vertex set is fixed at
// conversion time. Mutations become visible to queries at iteration
// boundaries: the engine captures one immutable View per sweep
// iteration, so a kernel never observes a half-applied batch.
package delta

import (
	"fmt"
	"math/bits"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/wal"
)

// Op is one edge mutation. Del false inserts (ensures presence), true
// deletes (ensures absence). Endpoints are full vertex IDs; for
// undirected graphs either orientation may be given.
type Op struct {
	Del      bool
	Src, Dst uint32
}

// key packs a stored tuple's full endpoint IDs.
func key(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// TileDelta is one tile's accumulated mutations: a sorted key set with
// presence flags, and the positions of the base tuples it masks.
// Immutable once published in a View.
type TileDelta struct {
	// keys are the stored tuple keys in the delta, ascending, and
	// present[i] is keys[i]'s desired presence: true means exactly one
	// occurrence (inserted, or surviving a re-insert after delete), false
	// means zero (every base occurrence masked). Keys not in the delta
	// keep their base multiplicity.
	keys    []uint64
	present []bool
	// masked are the positions of the base tuples whose keys are in keys,
	// ascending: indexes in the tile's tile.DecodeBlock order. Readers
	// drop them without looking at keys and re-emit each present key
	// once, which is how an insert deduplicates a multigraph base edge.
	masked []int
	bits   uint // the graph's TileBits, for Ins
	// err is why Open could not compute masked (a base tile that fails
	// its checksum); reads and writes of the tile fail with it.
	err error
}

// keyFilter is a one-hash bitset over a set of tuple keys, 64 bits per
// key rounded up to a power of two: a key whose bit is clear is not in
// the set, and about 1.5 % of the keys that are not pass. Base tuples are
// tested against it before any search, so a tuple outside the delta
// costs a multiply and a load. A filter over source offsets alone passes
// far more: kron's heavy sources hold most tuples of a tile, and the
// deletes that land in the delta are drawn from exactly those sources.
type keyFilter struct {
	bits  []uint64
	shift uint8 // 64 - log2(len(bits)*64)
}

// reset empties f and sizes it for n keys.
func (f *keyFilter) reset(n int) {
	words := 1
	for words < n {
		words *= 2
	}
	if cap(f.bits) >= words {
		f.bits = f.bits[:words]
		clear(f.bits)
	} else {
		f.bits = make([]uint64, words)
	}
	f.shift = uint8(58 - bits.Len(uint(words-1)))
}

// slot is k's bit: the top bits of a Fibonacci hash.
func (f *keyFilter) slot(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 >> f.shift }

func (f *keyFilter) add(k uint64) {
	b := f.slot(k)
	f.bits[b>>6] |= 1 << (b & 63)
}

func (f *keyFilter) has(k uint64) bool {
	b := f.slot(k)
	return f.bits[b>>6]&(1<<(b&63)) != 0
}

// Masked returns the positions of the masked base tuples, ascending, or
// why they are unknown (nil, nil for a nil delta). A reader must not use
// a tile whose delta has an error. Callers must not modify the slice.
func (td *TileDelta) Masked() ([]int, error) {
	if td == nil {
		return nil, nil
	}
	return td.masked, td.err
}

// DropMasked removes from the decoded tuples src[i], dst[i] at positions
// pos+i those at the leading positions of masked, by copying the runs
// between them down. It returns how many tuples are kept and the masked
// positions past the block.
func DropMasked(src, dst []uint32, pos int, masked []int) (int, []int) {
	n := len(src)
	kept, from := 0, 0
	for ; len(masked) > 0 && masked[0] < pos+n; masked = masked[1:] {
		m := masked[0] - pos
		copy(src[kept:], src[from:m])
		copy(dst[kept:], dst[from:m])
		kept += m - from
		from = m + 1
	}
	copy(src[kept:], src[from:])
	copy(dst[kept:], dst[from:])
	return kept + n - from, masked
}

// Inserts fills src and dst with the endpoints of the present keys from
// keys[i] on, as many as fit, and returns how many (0 once none is left)
// and the key index to continue from.
func (td *TileDelta) Inserts(i int, src, dst []uint32) (n, next int) {
	for ; i < len(td.keys) && n < len(src); i++ {
		if td.present[i] {
			k := td.keys[i]
			src[n], dst[n] = uint32(k>>32), uint32(k)
			n++
		}
	}
	return n, i
}

// Ins returns the inserted tuples as SNB tuples, sorted, built on each
// call whatever the graph's codec: benchmark/probes.go counts them as
// len(Ins())/tile.SNBTupleBytes.
func (td *TileDelta) Ins() []byte {
	src, dst := make([]uint32, len(td.keys)), make([]uint32, len(td.keys))
	n, _ := td.Inserts(0, src, dst)
	return tile.EncodeTuples(tile.CodecSNB, td.bits, src[:n], dst[:n])
}

// Merge produces the bytes a fresh conversion of the mutated tile would
// store in the graph's codec c: the base tuples at unmasked positions,
// then the inserted tuples, through the converter's encoder (which sorts
// a v3 tile into blocks). baseData may be nil (a delta-only tile) and is
// never modified; bits is the graph's TileBits. Reads never merge. A
// corrupt base (what tile.DecodeTuples rejects), or one that ends before
// the last masked position, is an error.
func (td *TileDelta) Merge(baseData []byte, c tile.Codec, bits uint, rowBase, colBase uint32) ([]byte, error) {
	if td.err != nil {
		return nil, td.err
	}
	total, err := tile.Tuples(baseData, c)
	if err != nil {
		return nil, fmt.Errorf("delta: merge base tile: %w", err)
	}
	if m := len(td.masked); m > 0 && td.masked[m-1] >= total {
		return nil, fmt.Errorf("delta: merge base tile: masked position %d is past the base's %d tuples",
			td.masked[m-1], total)
	}
	src := make([]uint32, 0, total-len(td.masked)+len(td.keys))
	dst := make([]uint32, 0, cap(src))
	var bs, bd [tile.V3BlockTuples]uint32
	masked, pos := td.masked, 0
	for rest := baseData; len(rest) > 0; {
		n, next, err := tile.DecodeBlock(rest, c, rowBase, colBase, &bs, &bd)
		if err != nil {
			return nil, fmt.Errorf("delta: merge base tile: tile: decode at byte %d: %w", len(baseData)-len(rest), err)
		}
		kept := n
		if len(masked) > 0 && masked[0] < pos+n {
			kept, masked = DropMasked(bs[:n], bd[:n], pos, masked)
		}
		src, dst = append(src, bs[:kept]...), append(dst, bd[:kept]...)
		pos += n
		rest = next
	}
	n, _ := td.Inserts(0, src[len(src):cap(src)], dst[len(dst):cap(dst)])
	return tile.EncodeTuples(c, bits, src[:len(src)+n], dst[:len(dst)+n]), nil
}

// degPageBits sets the degree overlay's page: 1024 vertices.
const degPageBits = 10

// degOverlay is the net degree change per vertex, held in pages of
// 1<<degPageBits counts; a nil page, or one past the end, is all zero.
// Views share pages: a batch copies the page slice and clones only the
// pages it writes, once each.
type degOverlay struct {
	pages   [][]int32
	nonZero int // entries that are not zero
}

func (o *degOverlay) get(v uint32) int32 {
	if p := v >> degPageBits; int(p) < len(o.pages) && o.pages[p] != nil {
		return o.pages[p][v&(1<<degPageBits-1)]
	}
	return 0
}

// add adds d to v's entry. A page not in owned is shared with an older
// view, so it is cloned first and then owned by this one.
func (o *degOverlay) add(v uint32, d int32, owned map[uint32]bool) {
	p := v >> degPageBits
	if int(p) >= len(o.pages) {
		o.pages = append(o.pages, make([][]int32, int(p)+1-len(o.pages))...)
	}
	pg := o.pages[p]
	if !owned[p] {
		pg = make([]int32, 1<<degPageBits)
		copy(pg, o.pages[p])
		o.pages[p] = pg
		owned[p] = true
	}
	i := v & (1<<degPageBits - 1)
	old := pg[i]
	pg[i] += d
	switch {
	case old == 0 && pg[i] != 0:
		o.nonZero++
	case old != 0 && pg[i] == 0:
		o.nonZero--
	}
}

// View is an immutable snapshot of the delta layer. The engine captures
// one per sweep iteration and merges it into every dispatched tile.
type View struct {
	upto  uint64 // last WAL sequence number applied
	tiles map[int]*TileDelta
	deg   degOverlay // net degree change per vertex
	// insTuples / maskedKeys summarize the view for stats.
	insTuples  int64
	maskedKeys int64
}

// Upto returns the last WAL sequence number the view covers.
func (v *View) Upto() uint64 { return v.upto }

// Tile returns the delta for disk index di, or nil.
func (v *View) Tile(di int) *TileDelta {
	if v == nil {
		return nil
	}
	return v.tiles[di]
}

// NumTiles reports how many tiles carry delta data.
func (v *View) NumTiles() int {
	if v == nil {
		return 0
	}
	return len(v.tiles)
}

// TileIndexes returns the disk indexes with delta data, ascending.
func (v *View) TileIndexes() []int {
	idx := make([]int, 0, len(v.tiles))
	for di := range v.tiles {
		idx = append(idx, di)
	}
	sort.Ints(idx)
	return idx
}

// Empty reports whether the view carries no mutations at all.
func (v *View) Empty() bool { return v == nil || (len(v.tiles) == 0 && v.deg.nonZero == 0) }

// Degrees overlays the view's degree changes on a base source. A nil
// base returns nil (the graph carries no degree file).
func (v *View) Degrees(base tile.DegreeSource) tile.DegreeSource {
	if base == nil || v == nil || v.deg.nonZero == 0 {
		return base
	}
	return &degreeOverlay{base: base, delta: v.deg}
}

type degreeOverlay struct {
	base  tile.DegreeSource
	delta degOverlay
}

func (o *degreeOverlay) Degree(v uint32) uint32 {
	d := int64(o.base.Degree(v)) + int64(o.delta.get(v))
	if d < 0 {
		return 0 // defensive; Apply keeps deltas consistent with the base
	}
	return uint32(d)
}

func (o *degreeOverlay) SizeBytes() int64 {
	return o.base.SizeBytes() + int64(o.delta.nonZero)*8
}

// Options configures a Store.
type Options struct {
	// WALSegmentBytes is the WAL rotation threshold (zero: the wal
	// package default).
	WALSegmentBytes int64
	// OnFsync observes WAL fsync durations (metrics hook).
	OnFsync func(d time.Duration)
	// FS routes all file operations of the store, its WAL, and its
	// snapshots; nil selects the real filesystem.
	FS faultfs.FS
}

// Stats is a point-in-time summary of a Store.
type Stats struct {
	Seq             uint64 // last acknowledged WAL sequence number
	WALAppends      uint64 // Append calls acknowledged this process
	WALSegment      int    // current WAL segment number
	Flushes         uint64 // snapshots written this process
	DeltaTiles      int    // tiles carrying delta data
	InsTuples       int64  // inserted tuples across all tiles
	MaskedKeys      int64  // masked (deleted or re-inserted) tuple keys
	ReplaySegments  int    // WAL segments replayed at Open
	ReplayRecords   int    // WAL records replayed at Open
	ReplayOps       int64  // mutations reapplied from the WAL at Open
	ReplayTornBytes int64  // torn WAL tail discarded at Open
}

// Store is the mutable layer over one base graph. Apply is safe for
// concurrent use; reads go through View and never block writers.
type Store struct {
	g    *tile.Graph
	base string
	opts Options
	fs   faultfs.FS

	mu          sync.Mutex // serializes Apply/Flush/Close
	w           *wal.W     // lazily created on first Apply
	seq         uint64
	gen         int // newest snapshot generation on disk
	closed      bool
	walAppends  atomic.Uint64
	flushes     atomic.Uint64
	replayStats wal.ReplayStats
	replayOps   int64
	scratch     applyScratch // applyToView's, guarded by mu (Open runs before sharing)

	view atomic.Pointer[View]
}

// Open attaches the delta layer to the graph at base (the path passed
// to tile.Open). The newest valid snapshot is loaded and any WAL
// records beyond it are replayed, so every mutation acknowledged before
// a crash is visible again. A graph with no snapshot and no WAL opens
// with an empty view and touches nothing on disk until the first Apply.
func Open(g *tile.Graph, base string, opts Options) (*Store, error) {
	s := &Store{g: g, base: base, opts: opts, fs: faultfs.Default(opts.FS)}
	// A crash mid-flush can strand a half-staged snapshot (*.tmp*); sweep
	// this graph's litter before loading state so it cannot accumulate.
	if _, err := fsutil.RemoveTemps(s.fs, filepath.Dir(base), filepath.Base(base)+"."); err != nil {
		return nil, fmt.Errorf("delta: removing stale temp files for %s: %w", base, err)
	}
	v, gen, err := loadNewestSnapshot(s.fs, base, g)
	if err != nil {
		return nil, err
	}
	s.gen = gen
	if v == nil {
		v = &View{}
	}
	s.maskBase(v)
	s.seq = v.upto

	// Crash recovery: reapply WAL records past the snapshot horizon.
	st, err := wal.ReplayFS(s.fs, walDir(base), func(payload []byte) error {
		seq, ops, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if seq <= v.upto {
			return nil // already covered by the snapshot
		}
		nv, _, err := s.applyToView(v, ops, seq)
		if err != nil {
			return err
		}
		v = nv
		s.replayOps += int64(len(ops))
		if seq > s.seq {
			s.seq = seq
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("delta: WAL recovery for %s: %w", base, err)
	}
	s.replayStats = st
	s.view.Store(v)
	return s, nil
}

// maskBase sets the masked positions of every tile of v, a view loaded
// from a snapshot, which records keys alone: every key in a tile's delta
// masks each of its base occurrences. A tile whose base cannot be read
// keeps the error instead, so it fails the reads and writes that touch
// it rather than the whole store.
func (s *Store) maskBase(v *View) {
	for di, td := range v.tiles {
		td.bits = s.g.Layout.TileBits
		if s.g.TupleCount(di) == 0 {
			continue
		}
		if _, td.err = s.countBase(di, td.keys); td.err == nil {
			for _, h := range s.scratch.hits {
				td.masked = append(td.masked, h.pos)
			}
		}
	}
}

// View returns the current immutable view (never nil).
func (s *Store) View() *View { return s.view.Load() }

// Failed returns the sticky write-path failure poisoning this store's
// WAL, or nil while it is healthy. A failed store rejects every Apply
// (errors.Is(err, wal.ErrFailed)) but keeps serving reads; the owner
// should surface the degradation (read-only mode) rather than retry.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	return s.w.Failed()
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	v := s.View()
	s.mu.Lock()
	st := Stats{
		Seq:             s.seq,
		WALAppends:      s.walAppends.Load(),
		Flushes:         s.flushes.Load(),
		ReplaySegments:  s.replayStats.Segments,
		ReplayRecords:   s.replayStats.Records,
		ReplayOps:       s.replayOps,
		ReplayTornBytes: s.replayStats.TornBytes,
	}
	if s.w != nil {
		st.WALSegment = s.w.Segment()
	}
	s.mu.Unlock()
	st.DeltaTiles = v.NumTiles()
	if v != nil {
		st.InsTuples = v.insTuples
		st.MaskedKeys = v.maskedKeys
	}
	return st
}

// Apply validates ops, makes them durable in the WAL (group-committed
// fsync), applies them to a fresh view, and publishes it. On return the
// batch is crash-safe: a reopened store replays it from the log. The
// returned count is the number of stored-tuple state changes (0 for a
// fully redundant batch — still logged, so acknowledgment is uniform).
func (s *Store) Apply(ops []Op) (changed int, err error) {
	nv := s.g.Meta.NumVertices
	for _, op := range ops {
		if op.Src >= nv || op.Dst >= nv {
			return 0, &BadOpError{Op: op, NumVertices: nv}
		}
	}
	if len(ops) == 0 {
		return 0, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("delta: store closed")
	}
	if s.w == nil {
		w, err := wal.Open(walDir(s.base), wal.Options{
			SegmentBytes: s.opts.WALSegmentBytes,
			OnFsync:      s.opts.OnFsync,
			FS:           s.opts.FS,
		})
		if err != nil {
			return 0, err
		}
		s.w = w
	}
	seq := s.seq + 1
	if err := s.w.Append(encodeRecord(seq, ops)); err != nil {
		return 0, err
	}
	s.walAppends.Add(1)
	s.seq = seq

	cur := s.view.Load()
	next, changed, err := s.applyToView(cur, ops, seq)
	if err != nil {
		// The record is durable but unappliable — only possible for an
		// internal invariant breach, since ops were validated above.
		return 0, err
	}
	s.view.Store(next)
	return changed, nil
}

// BadOpError reports a mutation referencing a vertex outside the
// graph's fixed vertex set.
type BadOpError struct {
	Op          Op
	NumVertices uint32
}

func (e *BadOpError) Error() string {
	return fmt.Sprintf("delta: edge (%d, %d) outside the graph's %d vertices (the vertex set is fixed at conversion)",
		e.Op.Src, e.Op.Dst, e.NumVertices)
}

// batchKey is one stored tuple key a batch names: its effective count as
// the batch's ops apply in order, so a later op on the key sees the
// earlier ones.
type batchKey struct {
	tile    int32 // index into the batch's tile list
	count   int32 // effective count: base multiplicity, or 0/1 once in the delta
	inDelta bool  // the key is in its tile's delta (before or since this batch)
	dirty   bool  // the batch changed the key's count
}

// batchTile is what one batch does to one tile.
type batchTile struct {
	di           int
	old          *TileDelta // the tile's delta before the batch, or nil
	newKeys      []uint64   // keys not in old: their base multiplicity is counted
	dirty        []uint64   // keys whose count the batch changed
	hitLo, hitHi int        // the tile's base hits in the batch's hit list
}

// baseHit is a base tuple whose key is counted: its position, and its key
// as an index into countBase's sorted keys or applyToView's entries.
type baseHit struct {
	pos int
	key int32
}

// v3Block is one block of a v3 tile: its head key, its byte offset and
// the position of its first tuple.
type v3Block struct {
	head     uint64
	off, pos int
}

// applyScratch is the write path's reusable scratch: one decode block,
// the base tile buffer, the filter of the keys being counted, their
// counts and the base tuples that hold them, and a v3 tile's blocks.
type applyScratch struct {
	src, dst [tile.V3BlockTuples]uint32
	buf      []byte
	filter   keyFilter
	counts   []uint32
	hits     []baseHit // ascending by position
	blocks   []v3Block
	decoded  int64 // base tuples decoded since Open (BenchmarkApply reports it)
}

// applyToView produces a new view with ops applied on top of cur
// (copy-on-write: untouched tiles and degree pages are shared). changed
// counts stored tuples whose effective count changed. The work is the
// batch's: each touched tile's base is decoded once when the batch names
// keys new to its delta, and each touched tile's key and position slices
// are copied once.
func (s *Store) applyToView(cur *View, ops []Op, seq uint64) (*View, int, error) {
	layout, directed := s.g.Layout, s.g.Meta.Directed

	// First pass: resolve each stored key the batch names, once. A key in
	// its tile's delta has a known count; a new key's count is its base
	// multiplicity, counted from the base tile below along with the
	// positions of the tuples that hold it.
	idx := make(map[uint64]int32, 2*len(ops))
	ents := make([]batchKey, 0, 2*len(ops))
	tileIdx := make(map[int]int32)
	var tiles []batchTile
	for _, op := range ops {
		layout.EachStored(op.Src, op.Dst, directed, func(di int, src, dst uint32) {
			k := key(src, dst)
			if _, ok := idx[k]; ok {
				return
			}
			ti, ok := tileIdx[di]
			if !ok {
				ti = int32(len(tiles))
				tileIdx[di] = ti
				tiles = append(tiles, batchTile{di: di, old: cur.tiles[di]})
			}
			bt := &tiles[ti]
			e := batchKey{tile: ti}
			if bt.old != nil {
				if i, ok := slices.BinarySearch(bt.old.keys, k); ok {
					e.inDelta = true
					if bt.old.present[i] {
						e.count = 1
					}
				}
			}
			if !e.inDelta {
				bt.newKeys = append(bt.newKeys, k)
			}
			idx[k] = int32(len(ents))
			ents = append(ents, e)
		})
	}
	var hits []baseHit // every tile's, keyed by entry
	for i := range tiles {
		bt := &tiles[i]
		if _, err := bt.old.Masked(); err != nil {
			return nil, 0, err
		}
		if len(bt.newKeys) == 0 || s.g.TupleCount(bt.di) == 0 {
			continue
		}
		counts, err := s.countBase(bt.di, bt.newKeys)
		if err != nil {
			return nil, 0, err
		}
		for j, k := range bt.newKeys {
			ents[idx[k]].count = int32(counts[j])
		}
		bt.hitLo = len(hits)
		for _, h := range s.scratch.hits {
			hits = append(hits, baseHit{pos: h.pos, key: idx[bt.newKeys[h.key]]})
		}
		bt.hitHi = len(hits)
	}

	// Second pass: state transitions with exact degree deltas.
	next := &View{
		upto:       seq,
		tiles:      make(map[int]*TileDelta, len(cur.tiles)+len(tiles)),
		deg:        degOverlay{pages: slices.Clone(cur.deg.pages), nonZero: cur.deg.nonZero},
		insTuples:  cur.insTuples,
		maskedKeys: cur.maskedKeys,
	}
	for di, td := range cur.tiles {
		next.tiles[di] = td
	}
	owned := make(map[uint32]bool) // degree pages cloned by this batch
	changed := 0
	for _, op := range ops {
		after := int32(1)
		if op.Del {
			after = 0
		}
		layout.EachStored(op.Src, op.Dst, directed, func(di int, src, dst uint32) {
			k := key(src, dst)
			e := &ents[idx[k]]
			if e.count == after {
				return // redundant mutation: no state change
			}
			if !e.inDelta {
				e.inDelta = true
				next.maskedKeys++
			}
			if !e.dirty {
				e.dirty = true
				tiles[e.tile].dirty = append(tiles[e.tile].dirty, k)
			}
			d := after - e.count
			e.count = after
			changed++
			next.deg.add(src, d, owned)
			if layout.Half && src != dst {
				next.deg.add(dst, d, owned)
			}
		})
	}

	// Merge each touched tile's sorted changes into its old key slice, and
	// the positions of the base tuples its new keys mask into its old
	// positions.
	for i := range tiles {
		bt := &tiles[i]
		if len(bt.dirty) == 0 {
			continue
		}
		slices.Sort(bt.dirty)
		var oldKeys []uint64
		var oldPresent []bool
		var oldMasked []int
		if bt.old != nil {
			oldKeys, oldPresent, oldMasked = bt.old.keys, bt.old.present, bt.old.masked
		}
		keys := make([]uint64, 0, len(oldKeys)+len(bt.dirty))
		present := make([]bool, 0, cap(keys))
		j := 0
		for _, k := range bt.dirty {
			at, found := slices.BinarySearch(oldKeys[j:], k)
			keys = append(keys, oldKeys[j:j+at]...)
			present = append(present, oldPresent[j:j+at]...)
			if j += at; found {
				if oldPresent[j] {
					next.insTuples--
				}
				j++
			}
			p := ents[idx[k]].count == 1
			if p {
				next.insTuples++
			}
			keys = append(keys, k)
			present = append(present, p)
		}
		keys = append(keys, oldKeys[j:]...)
		present = append(present, oldPresent[j:]...)
		// Keys that joined the delta mask their base tuples too. Keys never
		// leave, so positions only grow; the first append copies the old.
		masked := slices.Clip(oldMasked)
		for _, h := range hits[bt.hitLo:bt.hitHi] {
			if ents[h.key].inDelta {
				masked = append(masked, h.pos)
			}
		}
		if len(masked) > len(oldMasked) {
			slices.Sort(masked)
		}
		next.tiles[bt.di] = &TileDelta{keys: keys, present: present, masked: masked, bits: layout.TileBits}
		// A tile whose delta degenerated to "nothing masked, nothing
		// inserted" could be dropped, but a mask entry with zero base
		// occurrences is harmless and keeping it keeps accounting simple.
	}
	return next, changed, nil
}

// countBase returns how often each of keys (stored keys of tile di;
// sorted in place) occurs in the base tile, and leaves the tuples that
// hold them in sc.hits; both are scratch. Errors name the tile. ReadTile
// verifies the tile's checksum. An unsorted (fixed-width) tile is decoded
// whole. A sorted (v3) tile's block heads are its index: every block's
// frame, head and tuple count are read, a head below the one before is an
// error, and only the blocks whose head range can hold a key are decoded
// (and so validated). Decoded tuples are searched for only when they pass
// the keys' filter.
func (s *Store) countBase(di int, keys []uint64) (_ []uint32, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("delta: counting base occurrences in tile %d: %w", di, err)
		}
	}()
	sc := &s.scratch
	data, err := s.g.ReadTile(di, sc.buf)
	if err != nil {
		return nil, err
	}
	sc.buf = data
	slices.Sort(keys)
	sc.filter.reset(len(keys))
	for _, k := range keys {
		sc.filter.add(k)
	}
	sc.counts = slices.Grow(sc.counts[:0], len(keys))[:len(keys)]
	clear(sc.counts)
	sc.hits = sc.hits[:0]
	c := s.g.Layout.CoordAt(di)
	rb, _ := s.g.Layout.VertexRange(c.Row)
	cb, _ := s.g.Layout.VertexRange(c.Col)
	codec := s.g.Meta.TupleCodec()
	if !codec.Sorted() {
		for rest, pos := data, 0; len(rest) > 0; {
			n, next, err := sc.countBlock(data, rest, pos, codec, rb, cb, keys)
			if err != nil {
				return nil, err
			}
			rest, pos = next, pos+n
		}
		return sc.counts, nil
	}

	sc.blocks = sc.blocks[:0]
	for rest, pos := data, 0; len(rest) > 0; {
		off := len(data) - len(rest)
		src, dst, next, err := tile.V3BlockHead(rest, rb, cb)
		if err != nil {
			return nil, fmt.Errorf("tile: decode at byte %d: %w", off, err)
		}
		h := key(src, dst)
		if n := len(sc.blocks); n > 0 && h < sc.blocks[n-1].head {
			return nil, fmt.Errorf("tile: v3 block at byte %d starts at (%d, %d), below the block before it: blocks out of order",
				off, src, dst)
		}
		sc.blocks = append(sc.blocks, v3Block{head: h, off: off, pos: pos})
		n, _ := tile.Tuples(rest[:len(rest)-len(next)], codec) // V3BlockHead checked the frame and count
		rest, pos = next, pos+n
	}
	// Block j holds keys in [head j, head j+1]: inclusive above, as a key
	// held more than once can straddle the boundary. keys[:p] are below
	// the current block's head, so no later block holds them either.
	p := 0
	for j, b := range sc.blocks {
		for p < len(keys) && keys[p] < b.head {
			p++
		}
		if p == len(keys) {
			break
		}
		if j+1 < len(sc.blocks) && keys[p] > sc.blocks[j+1].head {
			continue
		}
		if _, _, err := sc.countBlock(data, data[b.off:], b.pos, codec, rb, cb, keys); err != nil {
			return nil, err
		}
	}
	return sc.counts, nil
}

// countBlock decodes the leading block of rest, a suffix of the tile data
// whose first tuple is at position pos, adds the block's tuples that are
// among keys to sc.counts and sc.hits, and returns the block's tuple
// count and the bytes after it.
func (sc *applyScratch) countBlock(data, rest []byte, pos int, c tile.Codec, rb, cb uint32, keys []uint64) (int, []byte, error) {
	n, next, err := tile.DecodeBlock(rest, c, rb, cb, &sc.src, &sc.dst)
	if err != nil {
		return 0, nil, fmt.Errorf("tile: decode at byte %d: %w", len(data)-len(rest), err)
	}
	sc.decoded += int64(n)
	for i, src := range sc.src[:n] {
		k := key(src, sc.dst[i])
		if !sc.filter.has(k) {
			continue
		}
		if j, ok := slices.BinarySearch(keys, k); ok {
			sc.counts[j]++
			sc.hits = append(sc.hits, baseHit{pos: pos + i, key: int32(j)})
		}
	}
	return n, next, nil
}

// Flush writes the current view to a new snapshot generation, rotates
// the WAL, and deletes the covered segments and older snapshots. A
// no-op when the view is empty and nothing was ever logged.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("delta: store closed")
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	v := s.view.Load()
	if v.Empty() && s.w == nil {
		return nil
	}
	if err := writeSnapshot(s.fs, s.base, s.gen+1, v); err != nil {
		return err
	}
	if err := s.fs.CrashPoint("delta.flush.after-snapshot"); err != nil {
		return err
	}
	s.gen++
	s.flushes.Add(1)
	if s.w != nil {
		newSeg, err := s.w.Rotate()
		if err != nil {
			return err
		}
		if err := s.fs.CrashPoint("delta.flush.after-rotate"); err != nil {
			return err
		}
		if err := s.w.TruncateBefore(newSeg); err != nil {
			return err
		}
		if err := s.fs.CrashPoint("delta.flush.after-truncate"); err != nil {
			return err
		}
	}
	return removeSnapshotsBelow(s.fs, s.base, s.gen)
}

// Close flushes (making WAL replay on next open a no-op) and releases
// the WAL. The WAL is released even when the flush fails — a poisoned
// or crashing store must not leak its segment descriptor — and the
// flush error wins.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	ferr := s.flushLocked()
	if s.w != nil {
		cerr := s.w.Close()
		s.w = nil
		if ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}
