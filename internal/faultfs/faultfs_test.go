package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func openW(t *testing.T, fs FS, path string) File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return f
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	f := openW(t, OS, p)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(p)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := OS.CrashPoint("anything"); err != nil {
		t.Fatalf("OS CrashPoint must be a no-op, got %v", err)
	}
	if Default(nil) != OS {
		t.Fatal("Default(nil) != OS")
	}
}

func TestWriteErrorRuleFiresOnceAtAfterN(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.Arm(Rule{Op: OpWrite, AfterN: 3})
	f := openW(t, fs, filepath.Join(dir, "a"))
	defer f.Close()
	for i := 1; i <= 5; i++ {
		_, err := f.Write([]byte("x"))
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("write %d: want ErrInjected, got %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := fs.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestEveryRuleIsPersistent(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.Arm(Rule{Op: OpSync, Every: true})
	f := openW(t, fs, filepath.Join(dir, "a"))
	defer f.Close()
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sync %d: want ErrInjected, got %v", i, err)
		}
	}
}

func TestPathContainsSelectsTargets(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.Arm(Rule{Op: OpWrite, PathContains: "victim", Every: true})
	v := openW(t, fs, filepath.Join(dir, "victim.dat"))
	o := openW(t, fs, filepath.Join(dir, "other.dat"))
	defer v.Close()
	defer o.Close()
	if _, err := v.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("victim write: want ErrInjected, got %v", err)
	}
	if _, err := o.Write([]byte("x")); err != nil {
		t.Fatalf("other write: %v", err)
	}
}

func TestShortWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.Arm(Rule{Op: OpWrite, ShortBytes: 3})
	p := filepath.Join(dir, "a")
	f := openW(t, fs, p)
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v, want 3, ErrInjected", n, err)
	}
	f.Close()
	data, _ := os.ReadFile(p)
	if string(data) != "abc" {
		t.Fatalf("file = %q, want the 3-byte prefix", data)
	}
}

func TestWriteBudgetENOSPC(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.SetWriteBudget(5)
	p := filepath.Join(dir, "a")
	f := openW(t, fs, p)
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("defg"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-budget write: n=%d err=%v, want 2, ENOSPC", n, err)
	}
	// The disk stays full until space is freed.
	if _, err := f.Write([]byte("h")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want sticky ENOSPC, got %v", err)
	}
	fs.SetWriteBudget(-1)
	if _, err := f.Write([]byte("h")); err != nil {
		t.Fatalf("after freeing space: %v", err)
	}
	f.Close()
}

// WriteAt takes the same write rules and budget as Write and leaves the
// write cursor alone; ReadAt reads what it wrote; the file size a crash
// tears back to counts WriteAt's bytes.
func TestWriteAtObeysRulesAndBudget(t *testing.T) {
	dir := t.TempDir()
	fs := New(3)
	fs.Arm(Rule{Op: OpWrite, AfterN: 2, ShortBytes: 1})
	fs.SetWriteBudget(5)
	p := filepath.Join(dir, "a")
	f := openW(t, fs, p)
	if _, err := f.WriteAt([]byte("cd"), 2); err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt([]byte("ab"), 0); n != 1 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short WriteAt: n=%d err=%v, want 1, ErrInjected", n, err)
	}
	if n, err := f.WriteAt([]byte("efgh"), 4); n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-budget WriteAt: n=%d err=%v, want 3, ENOSPC", n, err)
	}
	fs.SetWriteBudget(-1)
	if _, err := f.Write([]byte("X")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if n, err := f.ReadAt(got, 0); n != 7 || err != nil || string(got) != "X\x00cdefg" {
		t.Fatalf("ReadAt = %q (%d, %v), want Write at offset 0 over the WriteAt bytes", got[:n], n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.CrashNow()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash WriteAt: want ErrCrashed, got %v", err)
	}
	if _, err := f.ReadAt(got, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadAt: want ErrCrashed, got %v", err)
	}
	if data, err := os.ReadFile(p); err != nil || string(data) != "X\x00cdefg" {
		t.Fatalf("synced file after the crash = %q, %v; want all 7 bytes kept", data, err)
	}
}

func TestCrashDropsUnsyncedSuffixDeterministically(t *testing.T) {
	run := func(seed int64) string {
		dir := t.TempDir()
		fs := New(seed)
		p := filepath.Join(dir, "a")
		f := openW(t, fs, p)
		if _, err := f.Write([]byte("synced!")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("UNSYNCED")); err != nil {
			t.Fatal(err)
		}
		fs.CrashNow()
		if !fs.Crashed() {
			t.Fatal("Crashed() = false after CrashNow")
		}
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash write: want ErrCrashed, got %v", err)
		}
		if _, err := fs.ReadFile(p); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash ReadFile: want ErrCrashed, got %v", err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed, different tear: %q vs %q", a, b)
	}
	if len(a) < len("synced!") || a[:7] != "synced!" {
		t.Fatalf("synced prefix lost: %q", a)
	}
	if len(a) > len("synced!UNSYNCED") {
		t.Fatalf("file grew? %q", a)
	}
	// Some seed must produce a partial tear (not all-or-nothing).
	partial := false
	for seed := int64(0); seed < 32; seed++ {
		got := run(seed)
		if len(got) > 7 && len(got) < 15 {
			partial = true
			break
		}
	}
	if !partial {
		t.Fatal("no seed in [0,32) produced a partial (torn) tail")
	}
}

func TestCrashPointRuleKillsProcess(t *testing.T) {
	fs := New(7)
	fs.Arm(Rule{Op: OpCrashPoint, PathContains: "wal.rotate", Crash: true})
	if err := fs.CrashPoint("delta.flush.after-snapshot"); err != nil {
		t.Fatalf("unrelated point: %v", err)
	}
	if err := fs.CrashPoint("wal.rotate.after-sync"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed point: want ErrCrashed, got %v", err)
	}
	if err := fs.CrashPoint("delta.flush.after-snapshot"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("after crash every point fails: got %v", err)
	}
	pts := fs.Points()
	if pts["wal.rotate.after-sync"] != 1 || pts["delta.flush.after-snapshot"] != 1 {
		t.Fatalf("Points() = %v", pts)
	}
}

func TestRenameRemoveMkdirSyncDirRules(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.Arm(Rule{Op: OpRename, Every: true})
	fs.Arm(Rule{Op: OpRemove, Every: true})
	fs.Arm(Rule{Op: OpMkdir, Every: true})
	fs.Arm(Rule{Op: OpSyncDir, Every: true})
	p := filepath.Join(dir, "a")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(p, p+"2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Rename: %v", err)
	}
	if err := fs.Remove(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("Remove: %v", err)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); !errors.Is(err, ErrInjected) {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncDir: %v", err)
	}
	// All failed before touching the real filesystem.
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("original file gone: %v", err)
	}
	if _, err := os.Stat(p + "2"); !os.IsNotExist(err) {
		t.Fatalf("rename happened despite injection")
	}
}

func TestTruncateUpdatesSyncedState(t *testing.T) {
	dir := t.TempDir()
	fs := New(3)
	p := filepath.Join(dir, "a")
	f := openW(t, fs, p)
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	fs.CrashNow()
	data, _ := os.ReadFile(p)
	if string(data) != "0123" {
		t.Fatalf("after truncate+crash: %q, want %q", data, "0123")
	}
}

func TestCreateTempRule(t *testing.T) {
	dir := t.TempDir()
	fs := New(1)
	fs.Arm(Rule{Op: OpCreate, PathContains: ".tmp", Every: true})
	if _, err := fs.CreateTemp(dir, "x.tmp*"); !errors.Is(err, ErrInjected) {
		t.Fatalf("CreateTemp: want ErrInjected, got %v", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("temp file created despite injection: %v", ents)
	}
}
