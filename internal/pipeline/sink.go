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
// trailing newline), so Finalize only sorts and copies bytes.
type Sink struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	byKey   map[string]Record
	records []Record
	lines   [][]byte            // lines[i] is records[i]'s canonical line
	tel     *telemetry.Registry // nil until SetTelemetry; journal I/O metrics

	// buf is the group-commit buffer: appends coalesce here and reach the
	// file in batches — one write (and one fsync) per batch instead of one
	// write per record. Flushes happen on size (sinkFlushBytes), on
	// interval (the background flusher), and always on Close/Finalize, so
	// every record completed before a cancel is durable in the journal.
	buf       []byte
	flushDone chan struct{}
	stopOnce  sync.Once
}

// sinkFlushBytes forces a batch commit once this much is buffered;
// sinkFlushInterval bounds how long an append can stay buffered (the
// exposure window of a hard kill — a cooperative cancel always flushes).
const (
	sinkFlushBytes    = 1 << 20
	sinkFlushInterval = 25 * time.Millisecond
)

// SetTelemetry attributes the sink's journal I/O (append counts/bytes/
// latency, finalize latency) to reg; pipeline.Run installs the run's
// registry here. Nil disables sink metrics (the sink never falls back to
// Default on its own — a sink may outlive the run that instrumented it).
func (s *Sink) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	s.tel = reg
	s.mu.Unlock()
}

// OpenSink opens the JSONL sink at path. With resume true an existing file
// is recovered (intact lines kept, a torn tail truncated); with resume
// false any existing file is replaced. Either way, opening sweeps
// finalize temp files abandoned by a kill mid-Finalize (see sweepOrphans).
func OpenSink(path string, resume bool) (*Sink, error) {
	sweepOrphans(filepath.Dir(path), ".jsonl-")
	s := &Sink{path: path, byKey: make(map[string]Record), flushDone: make(chan struct{})}
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
			// not guaranteed to hold canonical encodings.
			canon := rec.AppendJSON(nil)
			s.byKey[rec.Key] = rec
			s.records = append(s.records, rec)
			s.lines = append(s.lines, canon)
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

// Path returns the sink's file path.
func (s *Sink) Path() string { return s.path }

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
	s.byKey = make(map[string]Record, len(s.records)+n)
	for i, rec := range s.records {
		if valid[rec.Key] {
			kept = append(kept, rec)
			keptLines = append(keptLines, s.lines[i])
			s.byKey[rec.Key] = rec
		}
	}
	s.records, s.lines = slices.Grow(kept, n), slices.Grow(keptLines, n)
}

// Lookup returns the already-journaled record for key, if any.
func (s *Sink) Lookup(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byKey[key]
	return rec, ok
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
// bytes straight from the result store, so neither encodes again. The
// sink keeps line as it is, for the journal and for Finalize, so the
// caller must not reuse its storage. A line that fails the framing guard
// (see usableLine) is ignored and rec is encoded instead, so store bytes
// can never change the JSONL framing.
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

func (s *Sink) appendLine(rec Record, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byKey[rec.Key]; dup {
		return nil
	}
	s.buf = append(s.buf, data...)
	s.buf = append(s.buf, '\n')
	if s.tel != nil {
		s.tel.Counter("journal.appends").Inc()
		s.tel.Counter("journal.bytes").Add(int64(len(data) + 1))
	}
	s.byKey[rec.Key] = rec
	s.records = append(s.records, rec)
	s.lines = append(s.lines, data)
	if len(s.buf) >= sinkFlushBytes {
		return s.flushLocked(false)
	}
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
	if len(s.buf) > 0 {
		flushStart := time.Now()
		if _, err := s.f.Write(s.buf); err != nil {
			return err
		}
		s.buf = s.buf[:0]
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

// Flush commits the group-commit buffer to the OS (tests and long-lived
// embedders; Close and Finalize flush on their own).
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(false)
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
			if s.f != nil && len(s.buf) > 0 {
				s.flushLocked(false) // best-effort; errors surface on Close/Finalize
			}
			s.mu.Unlock()
		}
	}
}

func (s *Sink) stopFlusher() {
	s.stopOnce.Do(func() { close(s.flushDone) })
}

// Records returns a copy of every journaled record, in journal order.
func (s *Sink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.records...)
}

// Finalize rewrites the sink file in canonical order and closes the sink.
// After Finalize the file's bytes depend only on the record *set* — not on
// completion order, shard layout, cache hits or how many interrupted runs
// contributed — which is the property the shard-invariance and
// resume-equivalence tests pin. It sorts the journaled lines; nothing is
// marshalled again.
func (s *Sink) Finalize() error {
	s.stopFlusher()
	s.mu.Lock()
	defer s.mu.Unlock()
	finalizeStart := time.Now()
	if err := s.flushLocked(false); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.f = nil
	err := writeLines(s.path, s.records, s.lines)
	if s.tel != nil {
		s.tel.Histogram("journal.finalize_ns").ObserveSince(finalizeStart)
	}
	return err
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
	return writeLines(path, records, lines)
}

// finalizeBufSize bounds the buffer writeLines streams a journal through
// (a full-suite journal is megabytes).
const finalizeBufSize = 64 << 10

// writeLines writes lines (lines[i] encodes records[i]) to path, one per
// line, in canonical record order: by name, key-tiebroken (names are
// unique across the generated suite, but user script directories make no
// such promise). The write is atomic and durable (atomicWriteFile).
func writeLines(path string, records []Record, lines [][]byte) error {
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
	return atomicWriteFile(path, ".jsonl-*", func(f io.Writer) error {
		// A small journal gets a buffer of its own size, not the bound.
		w := bufio.NewWriterSize(f, min(size, finalizeBufSize))
		for _, i := range order {
			w.Write(lines[i])
			w.WriteByte('\n')
		}
		return w.Flush() // reports the first failed write
	})
}

// ReadRecords loads every record line of a JSONL file, in file order. A
// torn trailing line — one with no terminating newline, the only shape a
// killed append can leave — is ignored; any malformed newline-terminated
// line is corruption and an error (appends write the line and its '\n'
// in one syscall, so a short write can never produce a terminated
// partial line).
func ReadRecords(path string) ([]Record, error) {
	return readRecords(path, true)
}

// ReadVerdicts is ReadRecords without the checked-trace text: every
// record's Checked stays empty. A line that ends in its "checked" member,
// as every line AppendJSON writes does, is decoded without it, so the
// text, most of a record's bytes, is neither parsed nor validated; other
// lines are decoded whole. Summaries (Summarise) need nothing more.
func ReadVerdicts(path string) ([]Record, error) {
	return readRecords(path, false)
}

func readRecords(path string, checked bool) ([]Record, error) {
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
		if !checked {
			line = cutChecked(line)
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("pipeline: %s: bad record line: %w", path, err)
		}
		if !checked {
			rec.Checked = ""
		}
		out = append(out, rec)
	}
	return out, nil
}

// checkedMember opens a record line's "checked" member. Inside a JSON
// string every quote is escaped, so a match is always structural.
var checkedMember = []byte(`,"checked":"`)

// cutChecked returns line with its "checked" member removed when that
// member is the line's last, overwriting line in place; any other line
// comes back as it is.
func cutChecked(line []byte) []byte {
	i := bytes.Index(line, checkedMember)
	if i < 0 {
		return line
	}
	// The string value must close at the line's final '"', right before
	// the object's '}'.
	for j := i + len(checkedMember); ; j++ {
		k := bytes.IndexByte(line[j:], '"')
		if k < 0 {
			return line
		}
		j += k
		escapes := 0
		for line[j-1-escapes] == '\\' {
			escapes++
		}
		if escapes%2 == 0 {
			if j != len(line)-2 || line[j+1] != '}' {
				return line
			}
			line[i] = '}'
			return line[:i+1]
		}
	}
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
