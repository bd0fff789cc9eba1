package sibylfs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenStoreErrorsAreNil pins the error paths of the store opener: a
// failed open returns a nil ResultStore, not one holding a nil pointer
// (which a caller testing the store instead of the error would call into),
// also when another store holds the directory.
func TestOpenStoreErrorsAreNil(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err := OpenPackStore(filepath.Join(notDir, "pack")); err == nil || store != nil {
		t.Errorf("OpenPackStore under a file: store %T, err %v; want a nil interface and an error", store, err)
	}

	dir := t.TempDir()
	owner, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if store, err := OpenPackStore(dir); err == nil || store != nil {
		t.Errorf("OpenPackStore on a held directory: store %T, err %v; want a nil interface and an error", store, err)
	}
}
