// Package faultfs makes filesystem failure a first-class, testable
// input of the persistence stack. Every byte G-Store writes durably —
// fsutil atomic files, WAL segments, delta snapshots, converted tiles —
// goes through the FS interface here; production code uses the
// passthrough OS implementation, while tests and the chaos harness
// substitute a FaultFS that injects write errors, short writes, fsync
// failures, ENOSPC after a byte budget, and whole-process crash
// simulations at named protocol points.
//
// A FaultFS is seeded and deterministic: the same rules over the same
// operation sequence inject the same faults, so every chaos schedule is
// replayable. A simulated crash models the first-order kernel contract
// the write path is built on: bytes written but not yet fsynced may
// vanish (each open file is truncated back to a seeded point between its
// last-synced and current length), and after the crash every operation
// fails with ErrCrashed until the "process" restarts by reopening state
// from disk with a fresh FS.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// File is the subset of *os.File the write path uses. Reads are
// included so recovery code can share the interface, but fault
// injection targets the write-side methods.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Chmod(mode os.FileMode) error
	Name() string
}

// FS abstracts the filesystem operations of the persistence stack.
// Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile mirrors os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename mirrors os.Rename.
	Rename(oldpath, newpath string) error
	// Remove mirrors os.Remove.
	Remove(name string) error
	// MkdirAll mirrors os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir mirrors os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile mirrors os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory, making completed renames and creations
	// within it durable.
	SyncDir(dir string) error
	// CrashPoint marks a named point in a persistence protocol (e.g.
	// "delta.flush.after-rotate"). The OS implementation returns nil; a
	// FaultFS armed to crash there returns ErrCrashed, which the caller
	// must propagate like any other write failure.
	CrashPoint(name string) error
}

// OS is the passthrough production filesystem.
var OS FS = osFS{}

// Default returns fsys, or OS when fsys is nil — so an FS field in an
// options struct costs callers nothing.
func Default(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) CrashPoint(string) error                      { return nil }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("faultfs: sync dir %s: %w", dir, serr)
	}
	return cerr
}

// Injected faults and crash are distinguishable error values so tests
// and the chaos harness can classify what they provoked.
var (
	// ErrInjected is the default error of a fired rule.
	ErrInjected = errors.New("faultfs: injected fault")
	// ErrCrashed is returned by every operation after a simulated crash.
	ErrCrashed = errors.New("faultfs: simulated crash (process dead until restart)")
	// ErrNoSpace is the injected ENOSPC (wraps syscall.ENOSPC so
	// errors.Is(err, syscall.ENOSPC) holds).
	ErrNoSpace = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)
)

// Op names a class of filesystem operation a Rule can match.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpCreate // OpenFile with O_CREATE, and CreateTemp
	OpRename
	OpRemove
	OpTruncate
	OpMkdir
	OpSyncDir
	OpCrashPoint
)

var opNames = [...]string{"write", "sync", "create", "rename", "remove", "truncate", "mkdir", "syncdir", "crashpoint"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Rule arms one fault. A rule fires on the AfterN-th operation matching
// (Op, PathContains); once fired it is spent unless Every is set.
type Rule struct {
	// Op selects the operation class.
	Op Op
	// PathContains restricts the rule to paths containing this substring
	// (for OpCrashPoint: point names). Empty matches everything.
	PathContains string
	// AfterN fires the rule on the Nth match (1-based; 0 means 1).
	AfterN int
	// Every keeps the rule firing on every match from AfterN on —
	// a persistent failure (e.g. a dead disk's fsync) instead of a
	// transient one.
	Every bool
	// Err is the injected error; nil selects ErrInjected.
	Err error
	// ShortBytes, for OpWrite, writes only that many bytes of the buffer
	// before failing — a short write with a durable prefix.
	ShortBytes int
	// Crash escalates the fault to a simulated process crash: unsynced
	// bytes of every open file are (partially) dropped and every
	// subsequent operation fails with ErrCrashed.
	Crash bool
}

type armedRule struct {
	Rule
	seen  int
	spent bool
}

// matches reports whether the rule fires for this occurrence.
func (r *armedRule) matches(op Op, path string) bool {
	if r.spent || r.Op != op {
		return false
	}
	if r.PathContains != "" && !contains(path, r.PathContains) {
		return false
	}
	r.seen++
	n := r.AfterN
	if n <= 0 {
		n = 1
	}
	if r.seen < n {
		return false
	}
	if !r.Every {
		r.spent = true
	}
	return true
}

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// FaultFS wraps the real filesystem with seeded, deterministic fault
// injection. The zero value is not usable; call New.
type FaultFS struct {
	mu       sync.Mutex
	rngState uint64
	rules    []*armedRule
	budget   int64 // bytes writable before ENOSPC; <0 = unlimited
	crashed  bool
	open     map[*faultFile]struct{}
	injected int
	points   map[string]int
}

// New returns a FaultFS whose crash tear points are derived from seed.
func New(seed int64) *FaultFS {
	return &FaultFS{
		rngState: uint64(seed)*0x9E3779B97F4A7C15 + 1,
		budget:   -1,
		open:     make(map[*faultFile]struct{}),
		points:   make(map[string]int),
	}
}

// Arm installs a rule. Safe to call between operations.
func (f *FaultFS) Arm(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &armedRule{Rule: r})
}

// SetWriteBudget allows n more bytes of writes before every further
// write fails with ErrNoSpace (a short write at the boundary). Negative
// n removes the limit — "space was freed".
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
}

// Injected reports how many faults (including ENOSPC hits and crashes)
// have fired.
func (f *FaultFS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Crashed reports whether the simulated process is dead.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Points returns how often each named crash point was passed — the
// chaos harness uses it to confirm protocol coverage.
func (f *FaultFS) Points() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.points))
	for k, v := range f.points {
		out[k] = v
	}
	return out
}

// CrashNow simulates an immediate process crash (see Rule.Crash).
func (f *FaultFS) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *FaultFS) rngLocked() uint64 {
	// splitmix64: deterministic, cheap, and good enough for tear points.
	f.rngState += 0x9E3779B97F4A7C15
	z := f.rngState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// crashLocked kills the simulated process: every open file loses a
// seeded-random suffix of its unsynced bytes (possibly none, possibly
// all — torn writes included), and the FS goes dead.
func (f *FaultFS) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	f.injected++
	for ff := range f.open {
		ff.tear(f.rngLocked())
	}
}

// check runs the rule engine for one operation occurrence. It returns
// the rule that fired (nil for none) and the error to inject.
func (f *FaultFS) check(op Op, path string) (*armedRule, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	if op == OpCrashPoint {
		f.points[path]++
	}
	for _, r := range f.rules {
		if !r.matches(op, path) {
			continue
		}
		f.injected++
		if r.Crash {
			f.crashLocked()
			return r, ErrCrashed
		}
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		return r, fmt.Errorf("%s %s: %w", op, path, err)
	}
	return nil, nil
}

// chargeWrite debits n bytes against the budget, returning how many are
// allowed and whether the write runs out of space.
func (f *FaultFS) chargeWrite(n int) (allowed int, full bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget < 0 {
		return n, false
	}
	if int64(n) <= f.budget {
		f.budget -= int64(n)
		return n, false
	}
	allowed = int(f.budget)
	f.budget = 0
	f.injected++
	return allowed, true
}

func (f *FaultFS) forget(ff *faultFile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.open, ff)
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpCreate
	if flag&os.O_CREATE == 0 {
		// Opening an existing file is a read-path concern; still honor
		// crash death but no creation rules.
		f.mu.Lock()
		dead := f.crashed
		f.mu.Unlock()
		if dead {
			return nil, ErrCrashed
		}
	} else if _, err := f.check(op, name); err != nil {
		return nil, err
	}
	real, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.track(real)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.check(OpCreate, filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	real, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f.track(real)
}

func (f *FaultFS) track(real *os.File) (File, error) {
	size := int64(0)
	if st, err := real.Stat(); err == nil {
		size = st.Size()
	}
	ff := &faultFile{fs: f, f: real, pos: size, size: size, synced: size}
	// New files opened O_WRONLY|O_CREATE|O_EXCL and temp files start
	// empty; reopened files start at offset 0 despite size>0.
	if pos, err := real.Seek(0, io.SeekCurrent); err == nil {
		ff.pos = pos
	}
	f.mu.Lock()
	f.open[ff] = struct{}{}
	f.mu.Unlock()
	return ff, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.check(OpRename, newpath); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.check(OpRemove, name); err != nil {
		return err
	}
	return os.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.check(OpMkdir, path); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return os.ReadDir(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return os.ReadFile(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if _, err := f.check(OpSyncDir, dir); err != nil {
		return err
	}
	return OS.SyncDir(dir)
}

func (f *FaultFS) CrashPoint(name string) error {
	_, err := f.check(OpCrashPoint, name)
	return err
}

// faultFile tracks the synced/unsynced split of one open file so a
// simulated crash can drop the unsynced suffix.
type faultFile struct {
	fs *FaultFS
	f  *os.File

	fmu    sync.Mutex
	pos    int64 // current write cursor
	size   int64 // high-water mark of written bytes
	synced int64 // size as of the last successful Sync
	torn   bool  // the crash already truncated this file
}

// tear implements the crash: keep the synced prefix plus a seeded
// portion of the unsynced suffix (rnd chooses the cut, so torn tails —
// partial records, partial pages — occur naturally).
func (ff *faultFile) tear(rnd uint64) {
	ff.fmu.Lock()
	defer ff.fmu.Unlock()
	ff.torn = true
	if ff.size <= ff.synced {
		return
	}
	unsynced := ff.size - ff.synced
	keep := ff.synced + int64(rnd%uint64(unsynced+1))
	_ = ff.f.Truncate(keep)
	_ = ff.f.Close()
}

func (ff *faultFile) dead() bool {
	ff.fmu.Lock()
	defer ff.fmu.Unlock()
	return ff.torn
}

func (ff *faultFile) Write(p []byte) (int, error) {
	return ff.inject(p, ff.write)
}

// WriteAt is Write at offset off, leaving the write cursor where it is;
// the same rules and write budget apply.
func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ff.inject(p, func(p []byte) (int, error) {
		n, err := ff.f.WriteAt(p, off)
		ff.fmu.Lock()
		ff.size = max(ff.size, off+int64(n))
		ff.fmu.Unlock()
		return n, err
	})
}

// inject applies the armed write rules and the write budget to a write
// of p that write performs.
func (ff *faultFile) inject(p []byte, write func([]byte) (int, error)) (int, error) {
	if ff.dead() {
		return 0, ErrCrashed
	}
	rule, err := ff.fs.check(OpWrite, ff.f.Name())
	if err != nil {
		if rule != nil && rule.ShortBytes > 0 && rule.ShortBytes < len(p) && !errors.Is(err, ErrCrashed) {
			n, werr := write(p[:rule.ShortBytes])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	allowed, full := ff.fs.chargeWrite(len(p))
	if full {
		n := 0
		if allowed > 0 {
			n, _ = write(p[:allowed])
		}
		return n, fmt.Errorf("write %s: %w", ff.f.Name(), ErrNoSpace)
	}
	return write(p)
}

func (ff *faultFile) write(p []byte) (int, error) {
	n, err := ff.f.Write(p)
	ff.fmu.Lock()
	ff.pos += int64(n)
	if ff.pos > ff.size {
		ff.size = ff.pos
	}
	ff.fmu.Unlock()
	return n, err
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if ff.dead() {
		return 0, ErrCrashed
	}
	n, err := ff.f.Read(p)
	ff.fmu.Lock()
	ff.pos += int64(n)
	ff.fmu.Unlock()
	return n, err
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if ff.dead() {
		return 0, ErrCrashed
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.dead() {
		return 0, ErrCrashed
	}
	pos, err := ff.f.Seek(offset, whence)
	if err == nil {
		ff.fmu.Lock()
		ff.pos = pos
		ff.fmu.Unlock()
	}
	return pos, err
}

func (ff *faultFile) Sync() error {
	if ff.dead() {
		return ErrCrashed
	}
	if _, err := ff.fs.check(OpSync, ff.f.Name()); err != nil {
		return err
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.fmu.Lock()
	ff.synced = ff.size
	ff.fmu.Unlock()
	return nil
}

func (ff *faultFile) Truncate(size int64) error {
	if ff.dead() {
		return ErrCrashed
	}
	if _, err := ff.fs.check(OpTruncate, ff.f.Name()); err != nil {
		return err
	}
	if err := ff.f.Truncate(size); err != nil {
		return err
	}
	ff.fmu.Lock()
	if size < ff.size {
		ff.size = size
	}
	if size < ff.synced {
		ff.synced = size
	}
	ff.fmu.Unlock()
	return nil
}

func (ff *faultFile) Chmod(mode os.FileMode) error {
	if ff.dead() {
		return ErrCrashed
	}
	return ff.f.Chmod(mode)
}

func (ff *faultFile) Name() string { return ff.f.Name() }

func (ff *faultFile) Close() error {
	ff.fs.forget(ff)
	if ff.dead() {
		return ErrCrashed // the crash already closed the descriptor
	}
	return ff.f.Close()
}
