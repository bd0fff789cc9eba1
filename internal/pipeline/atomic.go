package pipeline

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// atomicWriteFile writes the content write streams to path through a
// temp file in the same directory: write, fsync, chmod 0644, rename,
// fsync the directory. The fsync before rename is what makes the rename a
// durability barrier — on many file systems rename alone only orders
// metadata, so a crash shortly after could surface the *renamed* file
// with empty or torn content, defeating the whole point of the temp-file
// dance. The chmod undoes os.CreateTemp's 0600: pack index sidecars and
// finalized JSONL are shared artifacts (multi-user cache dirs, CI
// artifact upload), not secrets. The directory fsync persists the rename
// itself.
func atomicWriteFile(path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	if err := writeSyncClose(tmp, write); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

func writeSyncClose(f *os.File, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bytesOf is atomicWriteFile content that writes data as it is.
func bytesOf(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// orphanAge is how old an atomic-write temp file must be before the
// open-time sweep reclaims it. A kill between CreateTemp and Rename leaks
// the temp file forever (nothing else knows its random name); the age
// guard keeps the sweep from racing a live writer's in-flight file.
const orphanAge = time.Hour

// sweepOrphans removes abandoned atomic-write temp files: entries of dir
// whose name starts with prefix and whose mtime is older than orphanAge,
// counting each in tel's pipeline.orphans_swept (nil counts nothing).
// Best-effort hygiene — all errors are ignored; a file that can't be
// statted or removed will be caught by a later open.
func sweepOrphans(dir, prefix string, tel *telemetry.Registry) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanAge)
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || !info.ModTime().Before(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil && tel != nil {
			tel.Counter("pipeline.orphans_swept").Inc()
		}
	}
}
