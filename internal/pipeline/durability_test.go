package pipeline

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestCacheEntryPermissions pins the shared-artifact contract: entries
// land world-readable (0644), not with os.CreateTemp's private 0600 —
// a cache directory is meant to be shareable across users and CI stages.
// Checked on PackStore's segment and sidecar files.
func TestCacheEntryPermissions(t *testing.T) {
	key := strings.Repeat("ab", 32)
	dir := t.TempDir()
	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(key, []byte(`{"name":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"000001.seg", "000001.idx"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o644 {
			t.Fatalf("pack store %s mode %o, want 644", name, perm)
		}
	}
}

// TestFinalizedSinkPermissions does the same for the finalized JSONL.
func TestFinalizedSinkPermissions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := WriteRecords(path, []Record{{Key: "k1", Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("finalized sink mode %o, want 644", perm)
	}
}

// TestOrphanSweepOnOpen simulates a kill between CreateTemp and Rename:
// the leaked temp files (backdated past orphanAge) must be reclaimed the
// next time the cache is opened or a JSONL file is written beside them,
// while a live writer's fresh temp file and ordinary payload files
// survive untouched.
func TestOrphanSweepOnOpen(t *testing.T) {
	dir := t.TempDir()

	// Cache orphans (index sidecar temp files) live beside the segments.
	sub := filepath.Join(dir, "pack")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(sub, ".tmp-dead123")
	fresh := filepath.Join(sub, ".tmp-live456")
	entry := filepath.Join(sub, "cdef.json")
	for _, p := range []string{old, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * orphanAge)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if _, err := OpenCache(dir, reg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("stale cache orphan survived OpenCache")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file (possible live writer) was swept")
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatal("cache entry was swept")
	}

	// JSONL orphans (.jsonl-*, from a kill mid-write) live next to the
	// JSONL file.
	sinkDir := t.TempDir()
	oldSink := filepath.Join(sinkDir, ".jsonl-dead")
	freshSink := filepath.Join(sinkDir, ".jsonl-live")
	for _, p := range []string{oldSink, freshSink} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(oldSink, stale, stale); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(testScripts(t, 1))
	cfg.Tel = reg
	if _, _, err := RunJSONL(context.Background(), cfg, filepath.Join(sinkDir, "run.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(oldSink); !os.IsNotExist(err) {
		t.Fatal("stale JSONL orphan survived the write")
	}
	if _, err := os.Stat(freshSink); err != nil {
		t.Fatal("fresh JSONL temp file was swept")
	}
	// Both sweeps count into the registry passed to the open and the run.
	if n := reg.Counter("pipeline.orphans_swept").Value(); n != 2 {
		t.Fatalf("pipeline.orphans_swept = %d, want 2", n)
	}
}

// packFill writes n deterministic records through a PackStore and closes
// it, returning the keys in write order.
func packFill(t *testing.T, dir string, n int) []string {
	t.Helper()
	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = testKey(i)
		if err := p.Put(keys[i], []byte(packValue(keys[i]))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// packValue is the value packFill stores under key.
func packValue(key string) string { return strings.Repeat("v", 64) + key }

// testKey derives a distinct 64-hex-char key from i (the shape real
// SHA-256 keys have).
func testKey(i int) string {
	return strings.Repeat("0", 60) + string([]byte{
		hexDigit(i >> 12), hexDigit(i >> 8), hexDigit(i >> 4), hexDigit(i),
	})
}

func hexDigit(i int) byte {
	return "0123456789abcdef"[i&0xf]
}

// TestPackTruncatedTailSegment pins crash recovery: a segment whose tail
// was torn mid-append (simulated by truncating into the last entry) loses
// exactly the torn entry — earlier entries still read back verbatim, the
// file is cut back to the last intact boundary, and the lost key is a
// plain miss, never an error or a torn record.
func TestPackTruncatedTailSegment(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 10)

	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys[:9] {
		v, ok := p.Get(nil, k)
		if !ok {
			t.Fatalf("intact entry %s lost after tail truncation", k)
		}
		if string(v) != strings.Repeat("v", 64)+k {
			t.Fatalf("intact entry %s corrupted after tail truncation", k)
		}
	}
	if _, ok := p.Get(nil, keys[9]); ok {
		t.Fatal("torn tail entry served instead of missing")
	}
	// The recovered file must end at an entry boundary so new appends land
	// at a valid offset.
	if err := p.Put(keys[9], []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if v, ok := p2.Get(nil, keys[9]); !ok || string(v) != "rewritten" {
		t.Fatalf("re-put after recovery: got %q, %v", v, ok)
	}
}

// TestPackCRCMismatch pins bit-rot handling: flipping one payload byte
// makes that entry (and only that entry) a miss — reads verify the CRC,
// and a mismatch never surfaces a wrong or torn record.
func TestPackCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 4)

	segPath := filepath.Join(dir, "000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last entry's payload (the file tail is value
	// bytes of keys[3]).
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.Get(nil, keys[3]); ok {
		t.Fatal("CRC-mismatched entry served instead of missing")
	}
	for _, k := range keys[:3] {
		if _, ok := p.Get(nil, k); !ok {
			t.Fatalf("clean entry %s became a miss", k)
		}
	}
}

// TestPackMissingIndexRebuild pins sidecar independence: deleting the
// index file costs the next open a scan (pipeline.index_rebuilds), not
// any data — every entry still reads back.
func TestPackMissingIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 10)
	if err := os.Remove(filepath.Join(dir, "000001.idx")); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys {
		if _, ok := p.Get(nil, k); !ok {
			t.Fatalf("entry %s lost with the sidecar", k)
		}
	}
}

// TestPackCorruptIndexRebuild does the same for a damaged (rather than
// missing) sidecar: the checksum rejects it wholesale and the scan
// rebuilds the index.
func TestPackCorruptIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 10)
	idxPath := filepath.Join(dir, "000001.idx")
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(idxPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys {
		if _, ok := p.Get(nil, k); !ok {
			t.Fatalf("entry %s lost with the corrupt sidecar", k)
		}
	}
}

// TestPackHeaderlessActiveSegment pins the subtlest crash shape: a
// segment file created but killed before its first group commit (0 bytes,
// or fewer than the magic). The store must restart it — and, critically,
// new appends must re-seed the magic so the *next* recovery scan doesn't
// dismiss the whole segment.
func TestPackHeaderlessActiveSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000001.seg"), []byte("sfs"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := p.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Force a scan (no sidecar) to prove the re-seeded header is on disk.
	if err := os.Remove(filepath.Join(dir, "000001.idx")); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if v, ok := p2.Get(nil, key); !ok || string(v) != "value" {
		t.Fatalf("entry lost after headerless-segment recovery: %q, %v", v, ok)
	}
}

// abandon drops a store the way a killed process does: no final
// commit and no sidecar write, just the background flusher stopped and
// the handles closed — the LOCK file's with them, so the directory lock
// goes as the kernel drops it when the owner dies.
func abandon(p *PackStore) {
	p.flushOnce.Do(func() { close(p.flushDone) })
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closeFiles()
	p.closed = true
}

// putFlush puts each key with its packFill value, committing after each.
func putFlush(t *testing.T, p *PackStore, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if err := p.Put(k, []byte(packValue(k))); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackFlushOnlyCommits pins the commit-only barrier: Flush makes
// entries durable without rewriting the index sidecar, and a store
// abandoned after two barriers reopens with every entry while scanning
// only the commits past the sidecar's coverage. The covered prefix is
// deliberately damaged before the reopen: a scan of it would stop there
// and cut off every later entry, so their survival shows it was not
// scanned — and the damaged entry itself is a miss, never a wrong value.
func TestPackFlushOnlyCommits(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 4) // Close: the sidecar covers these four
	reg := telemetry.NewRegistry()

	p, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	keys = append(keys, testKey(4), testKey(5))
	putFlush(t, p, keys[4:]...)
	if n := reg.Counter("pipeline.index_writes").Value(); n != 0 {
		t.Fatalf("two Flush barriers wrote the sidecar %d times, want 0", n)
	}
	if n := reg.Counter("pipeline.store_fsyncs").Value(); n != 2 {
		t.Fatalf("two Flush barriers made %d fsyncs, want 2", n)
	}
	abandon(p)

	segPath := filepath.Join(dir, "000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// The file opens with the magic and keys[0]'s entry; flip a byte of
	// its value.
	data[len(packMagic)+packHeaderLen+len(keys[0])] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 0 {
		t.Fatalf("reopen rebuilt %d segments, want a tail scan only", n)
	}
	if _, ok := p2.Get(nil, keys[0]); ok {
		t.Fatal("damaged entry served instead of missing")
	}
	for _, k := range keys[1:] {
		if v, ok := p2.Get(nil, k); !ok || string(v) != packValue(k) {
			t.Fatalf("entry %s after reopen: %q, %v", k, v, ok)
		}
	}
	// The scan rewrote the sidecar to cover the whole file.
	if n := reg.Counter("pipeline.index_writes").Value(); n != 1 {
		t.Fatalf("reopen wrote the sidecar %d times, want 1", n)
	}
}

// TestPackTornTailPastSidecar pins recovery when the damage lies in the
// uncovered tail: a torn entry after the sidecar's coverage is truncated
// away, the entries before it (covered or scanned) survive, and the file
// again ends at an entry boundary.
func TestPackTornTailPastSidecar(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 4)
	reg := telemetry.NewRegistry()

	p, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	keys = append(keys, testKey(4), testKey(5))
	putFlush(t, p, keys[4])
	boundary := p.Stats().Bytes
	putFlush(t, p, keys[5])
	abandon(p)

	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 0 {
		t.Fatalf("reopen rebuilt %d segments, want a tail scan only", n)
	}
	for _, k := range keys[:5] {
		if v, ok := p2.Get(nil, k); !ok || string(v) != packValue(k) {
			t.Fatalf("intact entry %s after reopen: %q, %v", k, v, ok)
		}
	}
	if _, ok := p2.Get(nil, keys[5]); ok {
		t.Fatal("torn tail entry served instead of missing")
	}
	if info, err = os.Stat(segPath); err != nil {
		t.Fatal(err)
	}
	if info.Size() != boundary {
		t.Fatalf("recovered segment size %d, want the entry boundary %d", info.Size(), boundary)
	}
	if err := p2.Put(keys[5], []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if v, ok := p3.Get(nil, keys[5]); !ok || string(v) != "rewritten" {
		t.Fatalf("re-put after recovery: got %q, %v", v, ok)
	}
}

// TestPackOversizedSidecarRescans pins the other direction: a sidecar
// covering more than the file holds (the segment lost bytes it indexes)
// is rejected for a full rescan, so the lost entry is a miss rather than
// an index entry pointing past the end. The scan replaces the stale
// sidecar, so a regrown file cannot match it later.
func TestPackOversizedSidecarRescans(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 6)
	reg := telemetry.NewRegistry()

	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 1 {
		t.Fatalf("oversized sidecar: %d rebuilds, want 1", n)
	}
	if n := p.Stats().Entries; n != 5 {
		t.Fatalf("rescan indexed %d entries, want the 5 intact ones", n)
	}
	if _, ok := p.Get(nil, keys[5]); ok {
		t.Fatal("entry past the file's end served instead of missing")
	}
	// Regrow the file past the old coverage and abandon it: the next open
	// must scan the new tail against the rewritten sidecar.
	lost := keys[5]
	keys = append(keys[:5], testKey(6), testKey(7))
	putFlush(t, p, keys[5:]...)
	abandon(p)

	p2, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 1 {
		t.Fatalf("regrown file: %d rebuilds in total, want still 1", n)
	}
	for _, k := range keys {
		if v, ok := p2.Get(nil, k); !ok || string(v) != packValue(k) {
			t.Fatalf("entry %s after regrowth: %q, %v", k, v, ok)
		}
	}
	if _, ok := p2.Get(nil, lost); ok {
		t.Fatal("lost entry reappeared after regrowth")
	}
}

// TestPackStaleSidecarAfterRegrowth pins the case a failed sidecar
// replacement leaves behind: the segment was cut short of its sidecar's
// coverage, rescanned, and regrew past that coverage with entries of
// another size, while the old sidecar stayed (its removal and rewrite
// both failed). The stale sidecar's coverage now ends mid-entry; it must
// be rejected for a full rescan rather than start the tail scan there,
// which would cut off every committed entry after it.
func TestPackStaleSidecarAfterRegrowth(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 6)
	reg := telemetry.NewRegistry()
	segPath := filepath.Join(dir, "000001.seg")
	idxPath := filepath.Join(dir, "000001.idx")
	stale, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	regrown := []string{testKey(6), testKey(7), testKey(8)}
	for _, k := range regrown {
		if err := p.Put(k, []byte("r"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Bytes <= info.Size() {
		t.Fatalf("segment regrew to %d bytes, want past the stale coverage %d", p.Stats().Bytes, info.Size())
	}
	abandon(p)
	if err := os.WriteFile(idxPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 2 {
		t.Fatalf("stale sidecar: %d rebuilds in total, want 2", n)
	}
	for _, k := range keys[:5] {
		if v, ok := p2.Get(nil, k); !ok || string(v) != packValue(k) {
			t.Fatalf("entry %s after regrowth: %q, %v", k, v, ok)
		}
	}
	for _, k := range regrown {
		if v, ok := p2.Get(nil, k); !ok || string(v) != "r"+k {
			t.Fatalf("regrown entry %s: %q, %v", k, v, ok)
		}
	}
	if _, ok := p2.Get(nil, keys[5]); ok {
		t.Fatal("entry cut off before the regrowth served")
	}
}

// TestPackSidecarOutOfRange pins that a well-formed sidecar placing a
// value outside its covered prefix is rejected for a rescan: such an
// entry in the active segment would otherwise be read from the empty
// commit buffer.
func TestPackSidecarOutOfRange(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 3)
	reg := telemetry.NewRegistry()
	info, err := os.Stat(filepath.Join(dir, "000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	bogus := testKey(9)
	w := &PackStore{dir: dir, tel: reg}
	w.writeSidecar(1, map[string]packLoc{bogus: {off: info.Size() + 100, vlen: 5}}, info.Size())

	p, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 1 {
		t.Fatalf("out-of-range sidecar: %d rebuilds, want 1", n)
	}
	if _, ok := p.Get(nil, bogus); ok {
		t.Fatal("out-of-range sidecar entry served")
	}
	for _, k := range keys {
		if v, ok := p.Get(nil, k); !ok || string(v) != packValue(k) {
			t.Fatalf("entry %s after rescan: %q, %v", k, v, ok)
		}
	}
}

// TestPackDirLock pins the one-owner rule. While a store holds a
// directory, a second open fails naming the directory as in use and
// touches nothing: an orphaned temp file old enough to sweep and a torn
// tail past the last commit (which an owning open would cut off) are
// both still there, and every file is byte-identical. After Close the
// directory opens again, and a Close that fails releases it too.
func TestPackDirLock(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPackStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	putFlush(t, p, testKey(1), testKey(2))
	orphan := filepath.Join(dir, ".tmp-orphan")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * orphanAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, "000001.seg"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	before := dirFiles(t, dir)

	if q, err := OpenPackStore(dir, nil); err == nil {
		q.Close()
		t.Fatal("a second store opened a held directory")
	} else if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "in use") {
		t.Errorf("second open: %v; want an error naming %s as in use", err, dir)
	}
	if after := dirFiles(t, dir); !maps.Equal(before, after) {
		t.Errorf("the refused open changed the directory:\nbefore %q\nafter  %q", before, after)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p, err = OpenPackStore(dir, nil)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	for _, k := range []string{testKey(1), testKey(2)} {
		if v, ok := p.Get(nil, k); !ok || string(v) != packValue(k) {
			t.Fatalf("entry %s after reopen: %q, %v", k, v, ok)
		}
	}
	// Fail the final commit: the active segment's handle is gone.
	if err := p.Put(testKey(3), []byte(packValue(testKey(3)))); err != nil {
		t.Fatal(err)
	}
	p.files[p.active].Close()
	if err := p.Close(); err == nil {
		t.Fatal("Close committed through a closed segment handle")
	}
	p, err = OpenPackStore(dir, nil)
	if err != nil {
		t.Fatalf("reopen after a failed Close: %v", err)
	}
	p.Close()
}

// dirFiles maps each file name in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}
