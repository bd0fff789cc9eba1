package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// PackStore is the default result store: records append to bounded,
// append-only pack segments (git packfile / LevelDB-log style) instead
// of one file per key, and durability is paid per *batch*, not per
// entry. The three design points, each fixing a measured bottleneck of
// the file-per-key layout it replaced:
//
//   - Packed segments. A cold full-suite run used to create ~21k small
//     files, each with its own fsync + rename + directory fsync; a warm
//     run re-opened and re-parsed all of them. Here every entry is a
//     length-prefixed, CRC32-guarded append into the current segment,
//     and a read is one pread at a known offset.
//
//   - In-memory index. OpenPackStore loads key → (segment, offset,
//     length, crc) from per-segment index sidecars and scans only the
//     bytes a sidecar does not cover; a missing, corrupt or oversized
//     sidecar degrades to a sequential scan of that segment
//     (pipeline.index_rebuilds), never to an error. A torn tail entry —
//     the only damage a killed append can leave — is detected by its CRC
//     and truncated away.
//
//   - Group commit. Puts from all pipeline workers coalesce into one
//     in-memory tail; a single write + fsync covers the whole batch
//     (pipeline.store_batches / store_fsyncs). Flushes happen on size
//     (1 MiB pending), on interval (flushInterval, via a background
//     flusher), and always on Flush/Close — pipeline.Run flushes at
//     every exit, cancellation included, so every record a cancelled
//     run completed is durable for its rerun to hit. A commit never rewrites the
//     index sidecar (pipeline.index_writes).
//
// Entry layout (all integers big-endian):
//
//	uint32 crc32(key ‖ value) | uint16 len(key) | uint32 len(value) | key | value
//
// Segments are named NNNNNN.seg with an 8-byte "sfspack1" header and
// sealed at 64 MiB; NNNNNN.idx sidecars are written atomically
// on seal and on Close.
//
// A directory has one owner: the store holds an exclusive flock on the
// directory's LOCK file from open to Close, so a second store, in this
// process or another, fails to open instead of appending to the same
// segments. The kernel drops the lock when a killed owner exits.
type PackStore struct {
	dir  string
	lock *os.File // LOCK, flocked until closeFiles

	// maxSegmentBytes seals a segment once it grows past this size; an
	// entry larger than the bound still fits, in a segment of its own.
	// flushBytes forces a group commit once this many bytes are pending.
	maxSegmentBytes int64
	flushBytes      int

	mu       sync.RWMutex
	index    map[string]packLoc
	files    map[int]*os.File // open segment handles (active one is RDWR)
	segSizes map[int]int64    // durable bytes per sealed segment; active tracked below

	active      int   // active segment id (0 = none yet)
	flushedSize int64 // bytes of the active segment already on disk
	idxCovered  int64 // bytes of the active segment its on-disk sidecar covers
	pending     []byte
	closed      bool

	flushOnce sync.Once
	flushDone chan struct{}

	tel *telemetry.Registry
}

// packLoc addresses one value: segment id, value offset, value length,
// and the entry's CRC32 (over key+value), verified on every read.
type packLoc struct {
	seg  int
	off  int64
	vlen uint32
	crc  uint32
}

const (
	packMagic     = "sfspack1"
	packIdxMagic  = "sfspidx1"
	packHeaderLen = 10 // crc32 + keyLen16 + valLen32

	defaultMaxSegmentBytes = 64 << 20
	defaultFlushBytes      = 1 << 20
	// flushInterval bounds how long a Put can stay buffered before the
	// background flusher commits it.
	flushInterval = 50 * time.Millisecond
)

// packCRC is Castagnoli — hardware-accelerated on amd64/arm64, so the
// per-read verify costs far less than the syscalls it replaces.
var packCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenCache opens (creating if needed) the result cache rooted at dir: a
// PackStore with default options whose segments live under dir/pack.
// It is the one place that knows that layout (-cache-dir and
// WithCacheDir).
func OpenCache(dir string, tel *telemetry.Registry) (*PackStore, error) {
	return OpenPackStore(filepath.Join(dir, "pack"), tel)
}

// OpenPackStore opens (creating if needed) a packed segment store rooted
// at dir. The store's metrics go to tel, its open-time ones (segments,
// index rebuilds and writes, orphans swept) included, until
// SetTelemetry re-points them; nil gives the store a registry of its
// own.
func OpenPackStore(dir string, tel *telemetry.Registry) (*PackStore, error) {
	return openPackStore(dir, defaultMaxSegmentBytes, defaultFlushBytes, tel)
}

// openPackStore is OpenPackStore with explicit segment and commit sizes,
// which tests shrink to force rotation and size-triggered commits.
func openPackStore(dir string, maxSegmentBytes int64, flushBytes int, tel *telemetry.Registry) (*PackStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	sweepOrphans(dir, ".tmp-", tel)
	p := &PackStore{
		dir:             dir,
		lock:            lock,
		maxSegmentBytes: maxSegmentBytes,
		flushBytes:      flushBytes,
		index:           make(map[string]packLoc),
		files:           make(map[int]*os.File),
		segSizes:        make(map[int]int64),
		flushDone:       make(chan struct{}),
		tel:             tel,
	}
	if err := p.load(); err != nil {
		p.closeFiles()
		return nil, err
	}
	go p.flusher()
	return p, nil
}

// lockDir takes dir's LOCK file with a non-blocking exclusive flock,
// before the store sweeps, scans or truncates anything there.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("pack store %s is in use by another process or store", dir)
		}
		return nil, fmt.Errorf("locking pack store %s: %w", dir, err)
	}
	return f, nil
}

// SetTelemetry attributes the store's I/O metrics (batch commits,
// fsyncs, index rebuilds, CRC failures) to reg from now on; pipeline.Run
// installs the run's registry here. A nil reg keeps the current one.
func (p *PackStore) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.mu.Lock()
	p.tel = reg
	p.mu.Unlock()
}

// Dir returns the store root.
func (p *PackStore) Dir() string { return p.dir }

// load opens every segment, preferring index sidecars and falling back
// to a sequential scan; the last segment becomes the active one if it
// has room.
func (p *PackStore) load() error {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil || id <= 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		last := i == len(ids)-1
		if err := p.loadSegment(id, last); err != nil {
			return err
		}
	}
	p.tel.Gauge("pipeline.segments").Set(int64(len(p.files)))
	return nil
}

// loadSegment installs one segment's entries into the index. Sidecar
// first: it covers a prefix of the file (all of it after a seal or a
// Close; less after commits the process was killed before sealing), and
// only the uncovered tail is scanned. A missing or corrupt sidecar, or
// one covering more than the file holds or not matching it, is removed
// and degrades to a scan of the whole segment. A scan verifies every entry's CRC, truncates a torn tail, and
// rewrites the sidecar so the next open scans nothing.
func (p *PackStore) loadSegment(id int, last bool) error {
	path := p.segPath(id)
	flags := os.O_RDONLY
	if last {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := info.Size()

	locs, covered, ok := p.readSidecar(id, f, size)
	if !ok {
		p.tel.Counter("pipeline.index_rebuilds").Inc()
		// Drop a rejected sidecar before anything else, so it cannot
		// outlive a failed rewrite and match the file once it regrows.
		_ = os.Remove(p.idxPath(id))
		locs, covered = make(map[string]packLoc), 0
	}
	if !ok || covered < size {
		logical, err := scanSegment(f, locs, covered, size)
		if err != nil {
			f.Close()
			return err
		}
		if logical < size {
			// Torn or corrupt tail: cut it off so the file again ends at
			// a clean entry boundary (and, for the segment we are about
			// to append to, so new entries land at a valid offset).
			if err := os.Truncate(path, logical); err != nil {
				f.Close()
				return err
			}
			size = logical
		}
		p.writeSidecar(id, locs, size)
		covered = size
	}
	for key, loc := range locs {
		loc.seg = id
		p.index[key] = loc
	}
	p.files[id] = f
	p.segSizes[id] = size
	if last && size < p.maxSegmentBytes {
		p.active = id
		p.idxCovered = covered
		if size < int64(len(packMagic)) {
			// The segment never got a durable header (killed before its
			// first commit): restart it from scratch.
			if err := os.Truncate(path, 0); err != nil {
				f.Close()
				return err
			}
			size = 0
			p.pending = append(p.pending[:0], packMagic...)
		}
		p.flushedSize = size
		p.segSizes[id] = size
	}
	return nil
}

func (p *PackStore) segPath(id int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%06d.seg", id))
}

func (p *PackStore) idxPath(id int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%06d.idx", id))
}

// scanSegment walks the segment's bytes [from, size) sequentially,
// verifying every entry's CRC and adding its location to locs, and
// returns the logical end — the offset of the first torn or corrupt entry
// (everything after it is ignored). from must be an entry boundary; a
// scan from the first entry on checks the segment header too.
func scanSegment(f *os.File, locs map[string]packLoc, from, size int64) (int64, error) {
	if from <= int64(len(packMagic)) {
		from = 0
	}
	data := make([]byte, size-from)
	if _, err := f.ReadAt(data, from); err != nil {
		return 0, err
	}
	off := int64(0) // into data; file offset from+off
	if from == 0 {
		if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
			return 0, nil // not even a header: treat as empty
		}
		off = int64(len(packMagic))
	}
	end := int64(len(data))
	for off < end {
		if end-off < packHeaderLen {
			break // torn header
		}
		h := data[off : off+packHeaderLen]
		crc := binary.BigEndian.Uint32(h[0:4])
		klen := int64(binary.BigEndian.Uint16(h[4:6]))
		vlen := int64(binary.BigEndian.Uint32(h[6:10]))
		if klen == 0 || off+packHeaderLen+klen+vlen > end {
			break // torn or nonsense entry
		}
		key := data[off+packHeaderLen : off+packHeaderLen+klen]
		val := data[off+packHeaderLen+klen : off+packHeaderLen+klen+vlen]
		sum := crc32.Checksum(key, packCRC)
		sum = crc32.Update(sum, packCRC, val)
		if sum != crc {
			break // corrupt entry: stop at the last good offset
		}
		locs[string(key)] = packLoc{
			off:  from + off + packHeaderLen + klen,
			vlen: uint32(vlen),
			crc:  crc,
		}
		off += packHeaderLen + klen + vlen
	}
	return from + off, nil
}

// Sidecar layout: "sfspidx1", uint64 covered segment size, uint32 count,
// then per entry (uint16 keyLen | uint64 valOff | uint32 valLen |
// uint32 crc | key), and a trailing CRC32 over everything before it.
// Written atomically; validated wholesale on read — any damage means a
// rebuild-by-scan, never a wrong lookup. Each write counts in
// pipeline.index_writes.

func (p *PackStore) writeSidecar(id int, locs map[string]packLoc, covered int64) {
	keys := make([]string, 0, len(locs))
	for k := range locs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0, len(packIdxMagic)+12+len(locs)*32)
	buf = append(buf, packIdxMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(covered))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(locs)))
	for _, k := range keys {
		loc := locs[k]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = binary.BigEndian.AppendUint64(buf, uint64(loc.off))
		buf = binary.BigEndian.AppendUint32(buf, loc.vlen)
		buf = binary.BigEndian.AppendUint32(buf, loc.crc)
		buf = append(buf, k...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, packCRC))
	// Best-effort: a failed sidecar write only costs the next open a scan.
	if atomicWriteFile(p.idxPath(id), ".tmp-*", bytesOf(buf)) == nil {
		p.tel.Counter("pipeline.index_writes").Inc()
	}
}

// readSidecar loads a segment's index sidecar and the segment prefix it
// covers; ok is false when the sidecar is missing, corrupt, places an
// entry outside that prefix, covers more than the segment's current size
// (the file lost bytes the sidecar indexes), or does not match the file
// at the end of its coverage. A sidecar covering less is fine: commits
// after it (a store killed before Close) are left for the caller to scan.
func (p *PackStore) readSidecar(id int, f *os.File, segSize int64) (locs map[string]packLoc, covered int64, ok bool) {
	buf, err := os.ReadFile(p.idxPath(id))
	if err != nil || len(buf) < len(packIdxMagic)+16 {
		return nil, 0, false
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, packCRC) != binary.BigEndian.Uint32(tail) {
		return nil, 0, false
	}
	if string(body[:len(packIdxMagic)]) != packIdxMagic {
		return nil, 0, false
	}
	covered = int64(binary.BigEndian.Uint64(body[8:16]))
	if covered > segSize {
		return nil, 0, false
	}
	count := binary.BigEndian.Uint32(body[16:20])
	locs = make(map[string]packLoc, count)
	var lastKey string // the entry ending at covered
	off := 20
	for i := uint32(0); i < count; i++ {
		if off+18 > len(body) {
			return nil, 0, false
		}
		klen := int(binary.BigEndian.Uint16(body[off : off+2]))
		valOff := int64(binary.BigEndian.Uint64(body[off+2 : off+10]))
		vlen := binary.BigEndian.Uint32(body[off+10 : off+14])
		crc := binary.BigEndian.Uint32(body[off+14 : off+18])
		off += 18
		if off+klen > len(body) || valOff < int64(len(packMagic)+packHeaderLen+klen) || valOff > covered-int64(vlen) {
			// Every entry lies in the covered prefix: the store reads
			// any offset past the durable end from the commit buffer.
			return nil, 0, false
		}
		key := string(body[off : off+klen])
		off += klen
		locs[key] = packLoc{off: valOff, vlen: vlen, crc: crc}
		if valOff+int64(vlen) == covered {
			lastKey = key
		}
	}
	if off != len(body) {
		return nil, 0, false
	}
	// The last entry a sidecar covers is always live in it (nothing later
	// in the segment supersedes it), so coverage past the header must end
	// at an indexed entry that the file still holds. This rejects a stale
	// sidecar beside a segment that was cut and regrew past its coverage,
	// whose tail scan would otherwise start mid-entry.
	if covered > int64(len(packMagic)) && (lastKey == "" || !entryAt(f, lastKey, locs[lastKey])) {
		return nil, 0, false
	}
	return locs, covered, true
}

// entryAt reports whether the segment holds key's entry header, as loc
// describes it, just before loc's value.
func entryAt(f *os.File, key string, loc packLoc) bool {
	h := make([]byte, packHeaderLen+len(key))
	if _, err := f.ReadAt(h, loc.off-int64(len(h))); err != nil {
		return false
	}
	return binary.BigEndian.Uint32(h[0:4]) == loc.crc &&
		int(binary.BigEndian.Uint16(h[4:6])) == len(key) &&
		binary.BigEndian.Uint32(h[6:10]) == loc.vlen &&
		string(h[packHeaderLen:]) == key
}

// Get reads the bytes stored under key into dst (see Store.Get). Reads
// of already-committed entries are one pread; reads of entries still in
// the group-commit buffer are served from memory. Every read re-verifies
// the entry CRC — a mismatch (bit rot, torn concurrent writer) is a miss,
// never an error or a torn record.
func (p *PackStore) Get(dst []byte, key string) ([]byte, bool) {
	dst = dst[:0]
	p.mu.RLock()
	loc, ok := p.index[key]
	if !ok || p.closed {
		p.mu.RUnlock()
		return dst, false
	}
	// The entry's key and value are read together: the CRC covers both,
	// and checksumming contiguous bytes needs no copy of the key.
	n := len(key) + int(loc.vlen)
	kv := slices.Grow(dst, n)[:n]
	kvOff := loc.off - int64(len(key))
	if loc.seg == p.active && loc.off >= p.flushedSize {
		// Still pending: copy out under the read lock (flushes and
		// rotations take the write lock, so the buffer is stable here).
		copy(kv, p.pending[kvOff-p.flushedSize:])
		p.mu.RUnlock()
		return p.verify(key, kv, loc.crc)
	}
	f := p.files[loc.seg]
	p.mu.RUnlock()
	if f == nil {
		return kv[:0], false
	}
	if _, err := f.ReadAt(kv, kvOff); err != nil {
		return kv[:0], false
	}
	return p.verify(key, kv, loc.crc)
}

// verify checks an entry's key‖value bytes against the lookup key and
// the entry's CRC, and moves the value down over the key: the value is
// returned in kv's storage, from its start.
func (p *PackStore) verify(key string, kv []byte, crc uint32) ([]byte, bool) {
	if string(kv[:len(key)]) != key || crc32.Checksum(kv, packCRC) != crc {
		p.mu.RLock()
		tel := p.tel
		p.mu.RUnlock()
		tel.Counter("pipeline.store_crc_errors").Inc()
		return kv[:0], false
	}
	return kv[:copy(kv, kv[len(key):])], true
}

// Put appends one entry to the active segment's group-commit buffer.
// The entry is immediately visible to Get; durability arrives with the
// next batch commit (size, interval, or an explicit Flush).
func (p *PackStore) Put(key string, data []byte) error {
	if len(key) == 0 || len(key) > 0xffff {
		return fmt.Errorf("pipeline: pack store: bad key length %d", len(key))
	}
	entrySize := int64(packHeaderLen + len(key) + len(data))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("pipeline: pack store: closed")
	}
	if size := int(min(int64(p.flushBytes), p.maxSegmentBytes)); cap(p.pending) < size {
		// Sized once per store: regrowing the buffer from empty was the
		// cold path's largest store allocation.
		p.pending = append(make([]byte, 0, size), p.pending...)
	}
	if p.active == 0 || p.flushedSize+int64(len(p.pending))+entrySize > p.maxSegmentBytes {
		if err := p.rotateLocked(); err != nil {
			return err
		}
	}
	off := p.flushedSize + int64(len(p.pending))
	// The header's CRC is patched in once key‖value sit contiguously in
	// the buffer, so the checksum needs no copy of the key.
	p.pending = binary.BigEndian.AppendUint32(p.pending, 0)
	p.pending = binary.BigEndian.AppendUint16(p.pending, uint16(len(key)))
	p.pending = binary.BigEndian.AppendUint32(p.pending, uint32(len(data)))
	p.pending = append(p.pending, key...)
	p.pending = append(p.pending, data...)
	entry := p.pending[len(p.pending)-int(entrySize):]
	sum := crc32.Checksum(entry[packHeaderLen:], packCRC)
	binary.BigEndian.PutUint32(entry, sum)
	p.index[key] = packLoc{
		seg:  p.active,
		off:  off + packHeaderLen + int64(len(key)),
		vlen: uint32(len(data)),
		crc:  sum,
	}
	if len(p.pending) >= p.flushBytes {
		return p.flushLocked()
	}
	return nil
}

// rotateLocked seals the active segment (committing its tail and writing
// its index sidecar) and opens the next one. The very first Put, and any
// Put that would overflow maxSegmentBytes, lands here.
func (p *PackStore) rotateLocked() error {
	next := 1
	for id := range p.files {
		if id >= next {
			next = id + 1
		}
	}
	if p.active != 0 {
		if err := p.flushLocked(); err != nil {
			return err
		}
		p.segSizes[p.active] = p.flushedSize
		p.writeSidecar(p.active, p.segLocsLocked(p.active), p.flushedSize)
	}
	f, err := os.OpenFile(p.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	p.files[next] = f
	p.active = next
	p.flushedSize = 0
	p.idxCovered = 0
	p.pending = append(p.pending[:0], packMagic...)
	p.tel.Gauge("pipeline.segments").Set(int64(len(p.files)))
	return nil
}

// segLocsLocked collects the index entries that live in segment id (the
// sidecar's content — superseded duplicates are irrelevant by the
// cache-key contract: same key, same bytes).
func (p *PackStore) segLocsLocked(id int) map[string]packLoc {
	locs := make(map[string]packLoc)
	for k, loc := range p.index {
		if loc.seg == id {
			locs[k] = loc
		}
	}
	return locs
}

// flushLocked is the group commit: one write and one fsync cover every
// Put buffered since the last commit.
func (p *PackStore) flushLocked() error {
	if len(p.pending) == 0 || p.active == 0 {
		return nil
	}
	f := p.files[p.active]
	if _, err := f.WriteAt(p.pending, p.flushedSize); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	p.flushedSize += int64(len(p.pending))
	p.segSizes[p.active] = p.flushedSize
	p.pending = p.pending[:0]
	p.tel.Counter("pipeline.store_batches").Inc()
	p.tel.Counter("pipeline.store_fsyncs").Inc()
	return nil
}

// Flush commits every buffered Put — the group-commit barrier: one
// write and one fsync. pipeline.Run calls it on every exit path
// (success, failure and cancellation), so a rerun hits every record a
// failed or cancelled run completed. It leaves the index sidecar alone: rewriting the whole
// index at every barrier made a long session quadratic in its keys.
// Close writes it instead (sibylfs.Session.Close closes the store a
// session opened), and a store killed before Close costs its next open
// a scan of the commits past the sidecar's coverage.
func (p *PackStore) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	return p.flushLocked()
}

// flusher is the background interval commit: it bounds how long a Put
// can stay buffered in a process that neither fills flushBytes nor
// reaches a Flush barrier (e.g. a run killed without cleanup).
func (p *PackStore) flusher() {
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		select {
		case <-p.flushDone:
			return
		case <-t.C:
			p.mu.Lock()
			if !p.closed {
				p.flushLocked() // best-effort; errors surface on Flush/Close
			}
			p.mu.Unlock()
		}
	}
}

// Close flushes, seals the active segment's index sidecar (so the next
// open needs no scan), closes every segment handle and unlocks the
// directory — the last even when the flush fails.
func (p *PackStore) Close() error {
	p.flushOnce.Do(func() { close(p.flushDone) })
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	err := p.flushLocked()
	if err == nil && p.active != 0 && p.flushedSize > p.idxCovered {
		p.writeSidecar(p.active, p.segLocsLocked(p.active), p.flushedSize)
	}
	p.closeFiles()
	p.closed = true
	return err
}

// closeFiles closes every segment handle and then the LOCK file, which
// releases the directory to the next opener.
func (p *PackStore) closeFiles() {
	for _, f := range p.files {
		f.Close()
	}
	p.lock.Close()
}

// Stats reports live keys, segment count and the summed segment bytes
// (pending group-commit bytes included).
func (p *PackStore) Stats() StoreStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := StoreStats{Backend: "pack", Entries: len(p.index), Segments: len(p.files)}
	for id, size := range p.segSizes {
		if id == p.active {
			continue
		}
		st.Bytes += size
	}
	if p.active != 0 {
		st.Bytes += p.flushedSize + int64(len(p.pending))
	}
	return st
}
