// Package faultfs is the filesystem seam under every durable path in
// the repository — the jobs journal, the runner result cache, and the
// shadow/experiment artifact writers — plus a deterministic,
// seed-driven fault scheduler for exploring how those paths behave
// when the disk misbehaves.
//
// The seam is the FS interface: the handful of os-level operations the
// durable layers actually perform (open, create, write, sync, rename,
// remove, readdir). Production code holds an FS and uses OS, a zero-
// cost passthrough to the real os package. Tests substitute New(OS,
// plan), which injects short writes, torn writes at byte granularity,
// ENOSPC/EIO on write or fsync, rename failure, crash-points, and
// latency — all scheduled deterministically from Plan.Seed, so any
// failure replays from its printed seed alone.
//
// The injector models durability honestly: bytes written but not yet
// fsynced live only in the (simulated) page cache. A crash-point
// truncates every file back to its last-synced length plus a seeded
// portion of the unsynced tail — exactly the torn-tail shape a real
// power cut produces — before killing the "process" (a panic the
// Explore supervisor converts into process-style death). A dropped
// fsync therefore becomes an observable bug, not a silent slowdown.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the per-handle surface the durable writers use. *os.File
// satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage; durability claims rest
	// on it.
	Sync() error
	// Truncate resizes the file (the journal uses Truncate(0) after a
	// snapshot compaction).
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
	// Stat reports file metadata (size, for the durability model).
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem seam. Implementations must be safe for
// concurrent use.
type FS interface {
	// Open opens a file for reading.
	Open(name string) (File, error)
	// OpenFile is the full-control open (the journal uses
	// O_APPEND|O_CREATE|O_WRONLY).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// CreateTemp creates a uniquely named temp file in dir (atomic
	// write protocol: temp, write, sync, rename).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
}

// OS is the passthrough FS over the real os package — the production
// default everywhere a durable layer accepts an FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error { //lint:allow durability seam primitive: the fsync-before-rename obligation sits with callers (WriteFileAtomic)
	return os.Rename(oldpath, newpath)
}
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }

// OrOS returns fsys, or OS when fsys is nil — the idiom durable
// layers use to make the seam optional in their configs.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// WriteFileAtomic writes data to path with the atomic-replace
// protocol every durable artifact in the repository uses: create a
// hidden temp file next to the destination, write, fsync, close, then
// rename over path. A reader therefore observes either the old file or
// the complete new one, never a torn mix, even across a crash — the
// fsync-before-rename ordering is what the positlint durability rule
// enforces.
//
// On failure the temp file is removed and its removal error, if any,
// is joined into the returned error: in durable paths a failed cleanup
// (temp files silently accreting on a sick disk) deserves surfacing
// too.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	f, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync() // data must reach disk before the rename can commit it
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		return errors.Join(err, fsys.Remove(tmp))
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return errors.Join(err, fsys.Remove(tmp))
	}
	return nil
}
