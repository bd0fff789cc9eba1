package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostRefused: -fs host exits 2 with a message naming the symlink
// escape, before any jail directory is created or any script runs. The
// session is also given an expired deadline, so that a regression runs
// no candidate on the real file system either.
func TestHostRefused(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where a host jail would be created
	corpus := filepath.Join(t.TempDir(), "corpus")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fs", "host", "-spec", "linux", "-workers", "1",
		"-duration", "1ns", "-runs", "1", "-corpus", corpus}, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "symlink") || !strings.Contains(msg, "jail") {
		t.Errorf("stderr %q does not name the symlink escape from the jail", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused session reported %q", stdout.String())
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("the refused session left %d entries in TMPDIR (err %v)", len(entries), err)
	}
	if _, err := os.Stat(corpus); !os.IsNotExist(err) {
		t.Errorf("the refused session created its corpus directory (stat: %v)", err)
	}
}
