package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Sink is the streaming JSONL result file and, at the same time, the
// crash-safe resume journal: records append one line at a time as jobs
// finish, so a killed run keeps everything completed before the kill. On
// reopen with resume, a torn trailing line (the only damage an append-mode
// kill can cause) is truncated away and every intact record is indexed by
// key, letting the next run skip finished work. Append order is completion
// order and therefore nondeterministic; Finalize rewrites the file in
// canonical order before the sink is handed to consumers.
//
// Each record is kept next to its canonical line (rec.AppendJSON, no
// trailing newline), so Finalize only sorts and copies bytes. The lines
// live in the journal's own write buffer: each line is stored once.
type Sink struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	byKey   map[string]int // key → index into records
	records []Record
	lines   [][]byte            // lines[i] is records[i]'s canonical line
	tel     *telemetry.Registry // journal I/O metrics; nil records none

	// chunk is the group-commit buffer and, with the chunks before it,
	// the storage of lines: each line is appended with its '\n', and
	// chunk[:written] has reached the file. Appends coalesce here and
	// reach the file in batches — one write (and one fsync) per batch
	// instead of one write per record. A line that does not fit writes
	// the chunk's unwritten tail and starts the next chunk, a quarter
	// larger up to sinkFlushBytes (or the line's own size, if larger);
	// a full chunk is kept for lines' views, never regrown or copied.
	// Flushes also happen on interval (the background flusher) and
	// always on Close/Finalize, so every record completed before a
	// cancel is durable in the journal. Every flush writes whole lines.
	chunk     []byte
	written   int
	flushDone chan struct{}
	stopOnce  sync.Once
}

// sinkFirstChunk is the size of a sink's first line chunk; each next
// chunk is a quarter larger, up to sinkFlushBytes, which bounds how much
// a sink buffers before a batch commit. Growing by a quarter rather than
// doubling leaves at most about a fifth of a small journal's chunk bytes
// unused, instead of half. sinkFlushInterval bounds how long an
// append can stay buffered (the exposure window of a hard kill — a
// cooperative cancel always flushes).
const (
	sinkFirstChunk    = 4 << 10
	sinkFlushBytes    = 1 << 20
	sinkFlushInterval = 25 * time.Millisecond
)

// SetTelemetry attributes the sink's journal I/O (append counts/bytes/
// latency, finalize latency) to reg; pipeline.Run installs the run's
// registry here. Nil disables sink metrics.
func (s *Sink) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	s.tel = reg
	s.mu.Unlock()
}

// OpenSink opens the JSONL sink at path. With resume true an existing file
// is recovered (intact lines kept, a torn tail truncated); with resume
// false any existing file is replaced. Either way, opening sweeps
// finalize temp files abandoned by a kill mid-Finalize (see sweepOrphans),
// counted in tel, which also receives the sink's journal metrics until
// SetTelemetry replaces it (nil records none).
func OpenSink(path string, resume bool, tel *telemetry.Registry) (*Sink, error) {
	sweepOrphans(filepath.Dir(path), ".jsonl-", tel)
	s := &Sink{path: path, byKey: make(map[string]int), tel: tel, flushDone: make(chan struct{})}
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.f = f
		go s.flusher()
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	valid := 0 // byte offset of the end of the last intact record
	for len(data[valid:]) > 0 {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn tail: no terminating newline
		}
		line := data[valid : valid+nl]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			break // torn or foreign content; drop it and everything after
		}
		if _, dup := s.byKey[rec.Key]; !dup {
			// Re-encode rather than keep the file's bytes: a journal is
			// not guaranteed to hold canonical encodings. The file
			// already holds the record, so its line is marked written
			// (keep cannot fail yet: with no file set, it writes nothing).
			rec.Cached = true // not executed by the run that resumes it
			s.keep(rec, rec.AppendJSON(nil))
			s.written = len(s.chunk)
		}
		valid += nl + 1
	}
	if valid != len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	go s.flusher()
	return s, nil
}

// Restrict readies the sink for a run that may append n records: it
// presizes the index, records and lines for them, and drops journaled
// records whose key is not among keys — the resume-time defence against
// stale results. A sink belongs to one (suite, configuration) pair; when
// a script is edited between runs its key changes, and without pruning
// the old record (same name, old verdict) would survive every resume and
// finalize. Run passes the keys of the FULL suite (all shards), so
// records contributed by other shards of the same layout are never
// touched. The journal file still holds the stale lines until Finalize
// rewrites it; the in-memory view is pruned immediately.
func (s *Sink) Restrict(keys []string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var valid map[string]bool
	if len(s.records) > 0 {
		valid = make(map[string]bool, len(keys))
		for _, k := range keys {
			valid[k] = true
		}
	}
	kept, keptLines := s.records[:0], s.lines[:0]
	s.byKey = make(map[string]int, len(s.records)+n)
	for i, rec := range s.records {
		if valid[rec.Key] {
			s.byKey[rec.Key] = len(kept)
			kept = append(kept, rec)
			keptLines = append(keptLines, s.lines[i])
		}
	}
	s.records, s.lines = slices.Grow(kept, n), slices.Grow(keptLines, n)
}

// Lookup returns the already-journaled record for key, if any.
func (s *Sink) Lookup(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[key]
	if !ok {
		return Record{}, false
	}
	return s.records[i], true
}

// Len returns the number of journaled records.
func (s *Sink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Append journals one record through the group-commit buffer: the line
// coalesces with its neighbours and reaches the file in the next batch
// commit (whole lines only, so a kill still tears at most the final
// line of the file). Duplicate keys are dropped silently — they can only
// arise from two shards of the same layout sharing a sink, where both
// would write identical content anyway.
func (s *Sink) Append(rec Record) error {
	return s.appendLine(rec, rec.AppendJSON(nil))
}

// AppendEncoded journals a record whose canonical encoding (exactly
// rec.AppendJSON's bytes) the caller already holds: the pipeline's fresh
// path hands over the line it framed for the store, and its warm path the
// line inside the frame it read from the result store, so neither
// encodes again. The sink copies line into its journal buffer, so the
// caller may reuse line's storage as soon as AppendEncoded returns. A
// line that fails the framing guard (see usableLine) is ignored and rec
// is encoded instead, so store bytes can never change the JSONL framing.
func (s *Sink) AppendEncoded(rec Record, line []byte) error {
	if !usableLine(rec.Key, line) {
		return s.Append(rec)
	}
	return s.appendLine(rec, line)
}

// usableLine is the guard on lines the sink did not encode itself: one
// line only, and it must open with rec's own key as AppendJSON writes it.
func usableLine(key string, line []byte) bool {
	rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	return ok && bytes.IndexByte(line, '\n') < 0 && len(rest) >= len(key)+2 &&
		string(rest[:len(key)]) == key && string(rest[len(key):len(key)+2]) == `",`
}

func (s *Sink) appendLine(rec Record, line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byKey[rec.Key]; dup {
		return nil
	}
	if err := s.keep(rec, line); err != nil {
		return err
	}
	if s.tel != nil {
		s.tel.Counter("journal.appends").Inc()
		s.tel.Counter("journal.bytes").Add(int64(len(line) + 1))
	}
	return nil
}

// keep copies line and its newline into the current chunk and indexes
// rec with a view of it. A line the chunk has no room for first writes
// the chunk's unwritten lines, then starts a new chunk.
func (s *Sink) keep(rec Record, line []byte) error {
	need := len(line) + 1
	if cap(s.chunk)-len(s.chunk) < need {
		if err := s.flushLocked(false); err != nil {
			return err
		}
		size := min(max(cap(s.chunk)*5/4, sinkFirstChunk), sinkFlushBytes)
		s.chunk, s.written = make([]byte, 0, max(size, need)), 0
	}
	start := len(s.chunk)
	s.chunk = append(append(s.chunk, line...), '\n')
	s.byKey[rec.Key] = len(s.records)
	s.records = append(s.records, rec)
	s.lines = append(s.lines, s.chunk[start:start+len(line):start+len(line)])
	return nil
}

// flushLocked is the batch commit: one write covers every append since
// the last flush; sync additionally fsyncs (the Close/Finalize barrier —
// interval and size flushes leave durability to the OS, exactly the
// pre-batching behaviour of per-record appends).
func (s *Sink) flushLocked(fsync bool) error {
	if s.f == nil {
		return nil
	}
	if len(s.chunk) > s.written {
		flushStart := time.Now()
		if _, err := s.f.Write(s.chunk[s.written:]); err != nil {
			return err
		}
		s.written = len(s.chunk)
		if s.tel != nil {
			s.tel.Histogram("journal.flush_ns").ObserveSince(flushStart)
			s.tel.Counter("journal.batches").Inc()
		}
	}
	if fsync {
		if err := s.f.Sync(); err != nil {
			return err
		}
		if s.tel != nil {
			s.tel.Counter("journal.fsyncs").Inc()
		}
	}
	return nil
}

// flusher is the background interval commit bounding how long a record
// can stay buffered in a process that is killed without Close.
func (s *Sink) flusher() {
	t := time.NewTicker(sinkFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushDone:
			return
		case <-t.C:
			s.mu.Lock()
			if s.f != nil && len(s.chunk) > s.written {
				s.flushLocked(false) // best-effort; errors surface on Close/Finalize
			}
			s.mu.Unlock()
		}
	}
}

func (s *Sink) stopFlusher() {
	s.stopOnce.Do(func() { close(s.flushDone) })
}

// Finalize rewrites the sink file in canonical order, closes the sink and
// returns the records it wrote, in the order it wrote them: every record
// the file holds, resumed ones and other shards' included. After Finalize
// the file's bytes depend only on the record *set* — not on completion
// order, shard layout, cache hits or how many interrupted runs
// contributed — which is the property the shard-invariance and
// resume-equivalence tests pin. It sorts the journaled lines; nothing is
// marshalled again. Record.Cached is true on the records a cache hit or
// a resumed journal supplied.
func (s *Sink) Finalize() ([]Record, error) {
	s.stopFlusher()
	s.mu.Lock()
	defer s.mu.Unlock()
	finalizeStart := time.Now()
	if err := s.flushLocked(false); err != nil {
		return nil, err
	}
	if err := s.f.Close(); err != nil {
		return nil, err
	}
	s.f = nil
	records, err := writeLines(s.path, s.records, s.lines)
	if s.tel != nil {
		s.tel.Histogram("journal.finalize_ns").ObserveSince(finalizeStart)
	}
	return records, err
}

// Close closes the sink without canonicalizing (the journal keeps its
// append order; a later resume or Finalize can still pick it up). The
// group-commit buffer is flushed and fsynced first — Close is the
// cancellation path's exit, and "journal always resumable" requires the
// completed records to actually be on disk.
func (s *Sink) Close() error {
	s.stopFlusher()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.flushLocked(true)
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// WriteRecords writes records to path in canonical order, atomically and
// durably (temp file + fsync + rename + directory fsync), world-readable.
func WriteRecords(path string, records []Record) error {
	lines := make([][]byte, len(records))
	for i, rec := range records {
		lines[i] = rec.AppendJSON(nil)
	}
	_, err := writeLines(path, records, lines)
	return err
}

// finalizeBufSize bounds the buffer writeLines streams a journal through
// (a full-suite journal is megabytes).
const finalizeBufSize = 64 << 10

// writeLines writes lines (lines[i] encodes records[i]) to path, one per
// line, in canonical record order: by name, key-tiebroken (names are
// unique across the generated suite, but user script directories make no
// such promise). The write is atomic and durable (atomicWriteFile). It
// returns the records in the order written.
func writeLines(path string, records []Record, lines [][]byte) ([]Record, error) {
	order := make([]int, len(records))
	size := 0
	for i := range order {
		order[i] = i
		size += len(lines[i]) + 1
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(records[a].Name, records[b].Name); c != 0 {
			return c
		}
		return strings.Compare(records[a].Key, records[b].Key)
	})
	err := atomicWriteFile(path, ".jsonl-*", func(f io.Writer) error {
		// A small journal gets a buffer of its own size, not the bound.
		w := bufio.NewWriterSize(f, min(size, finalizeBufSize))
		for _, i := range order {
			w.Write(lines[i])
			w.WriteByte('\n')
		}
		return w.Flush() // reports the first failed write
	})
	if err != nil {
		return nil, err
	}
	written := make([]Record, len(order))
	for k, i := range order {
		written[k] = records[i]
	}
	return written, nil
}

// ReadRecords loads every record line of a JSONL file, in file order. A
// torn trailing line — one with no terminating newline, the only shape a
// killed append can leave — is ignored; any malformed newline-terminated
// line is corruption and an error (appends write the line and its '\n'
// in one syscall, so a short write can never produce a terminated
// partial line).
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Record
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail
		}
		line := data[off : off+nl]
		off += nl + 1
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("pipeline: %s: bad record line: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// MergeRecords combines shard sinks into one canonical JSONL file,
// dropping duplicate keys (first occurrence wins; duplicates are
// byte-identical by the cache-key contract).
func MergeRecords(out string, ins ...string) error {
	seen := make(map[string]bool)
	var all []Record
	for _, in := range ins {
		recs, err := ReadRecords(in)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if seen[rec.Key] {
				continue
			}
			seen[rec.Key] = true
			all = append(all, rec)
		}
	}
	return WriteRecords(out, all)
}
