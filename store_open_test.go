package sibylfs

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestOpenStoreErrorsAreNil pins the error paths of the store openers: a
// failed open returns a nil ResultStore, not one holding a nil pointer
// (which a caller testing the store instead of the error would call into),
// and OpenHTTPStore closes the local fallback it opened before refusing
// the URL, stopping that store's background flusher.
func TestOpenStoreErrorsAreNil(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err := OpenPackStore(filepath.Join(notDir, "pack")); err == nil || store != nil {
		t.Errorf("OpenPackStore under a file: store %T, err %v; want a nil interface and an error", store, err)
	}
	if store, err := OpenHTTPStore("http://localhost:1", notDir); err == nil || store != nil {
		t.Errorf("OpenHTTPStore with an unusable fallback dir: store %T, err %v; want a nil interface and an error", store, err)
	}

	before := packFlushers()
	store, err := OpenHTTPStore("ftp://x", t.TempDir())
	if err == nil || store != nil {
		t.Errorf("OpenHTTPStore(ftp://x): store %T, err %v; want a nil interface and an error", store, err)
	}
	// Close stops the flusher; the goroutine exits shortly after.
	for deadline := time.Now().Add(5 * time.Second); packFlushers() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d pack store flushers still run after the refused URL, %d before: the fallback was left open",
				packFlushers(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// packFlushers counts the running PackStore background flushers.
func packFlushers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("(*PackStore).flusher"))
}
