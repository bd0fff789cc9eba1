package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// HTTPStore is a Store served over the wire by an sfs-serve daemon (or
// any server mounting StoreHandler): a fleet of CI clients pointing
// `sfs-run -store http://…` at one daemon share one warm
// content-addressed cache. The protocol is four verbs under /v1/store —
// GET/PUT a single key, POST a framed batch, POST flush — with every
// value CRC-verified end to end (crc32c over key‖value, the same
// checksum pack entries carry on disk).
//
// Semantics against the Store contract:
//
//   - Get checks the local write-behind batch first (read-your-writes),
//     then the server. A 404, a torn or truncated body, or a CRC
//     mismatch is a miss, never an error. When the server is
//     unreachable the optional Fallback store answers instead.
//   - Put appends to a bounded in-memory write-behind batch; crossing
//     the bound ships the batch inline. Put never fails on a network
//     fault — the cache is lossy by contract, and a dead cache server
//     must not kill a fleet's runs.
//   - Flush ships the outstanding batch (with retry/backoff on 5xx and
//     transport errors) and then asks the server to run its own Flush —
//     the group-commit barrier spans both sides. A batch that still
//     fails after retries degrades: it lands in the Fallback store when
//     one is configured, and is dropped (and counted) otherwise.
//
// All degradation is visible in telemetry: pipeline.http_fallback_gets,
// pipeline.http_fallback_puts and pipeline.http_dropped_puts say exactly
// how much traffic the server did not see.
type HTTPStore struct {
	base string
	opts HTTPStoreOptions

	mu       sync.Mutex
	pending  map[string][]byte // write-behind batch, keyed for read-your-writes
	inflight map[string][]byte // batches shipped but not yet acknowledged
	pendSize int
	closed   bool

	tmu sync.RWMutex
	tel *telemetry.Registry
}

// HTTPStoreOptions tune an HTTPStore; the zero value is ready for use.
type HTTPStoreOptions struct {
	// FlushBytes bounds the write-behind batch: crossing it ships the
	// batch inline (default 1 MiB).
	FlushBytes int
	// MaxRetries is how many times a failed request is retried (default
	// 3, so up to 4 attempts).
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// Fallback is a local store consulted when the server cannot answer:
	// reads fall through to it, and batches that exhaust their retries
	// land in it instead of being dropped. Close closes it.
	Fallback Store
	// Client overrides the HTTP client (default: 30s overall timeout).
	Client *http.Client
}

// OpenHTTPStore validates the base URL ("http://host:port", with or
// without a trailing slash) and returns a remote store speaking the
// /v1/store protocol rooted there. No connection is attempted here — a
// daemon that comes up later is fine.
func OpenHTTPStore(base string, opts HTTPStoreOptions) (*HTTPStore, error) {
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("pipeline: http store: base URL %q must start with http:// or https://", base)
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 1 << 20
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPStore{
		base:     strings.TrimRight(base, "/"),
		opts:     opts,
		pending:  make(map[string][]byte),
		inflight: make(map[string][]byte),
		tel:      telemetry.Default,
	}, nil
}

// SetTelemetry attributes the store's remote-traffic metrics to reg
// (nil selects Default); Run installs its registry through it.
func (h *HTTPStore) SetTelemetry(reg *telemetry.Registry) {
	h.tmu.Lock()
	h.tel = telemetry.Or(reg)
	h.tmu.Unlock()
	if ts, ok := h.opts.Fallback.(telemetrySetter); ok {
		ts.SetTelemetry(reg)
	}
}

func (h *HTTPStore) telemetry() *telemetry.Registry {
	h.tmu.RLock()
	defer h.tmu.RUnlock()
	return h.tel
}

// storeCRCHeader carries the crc32c(key‖value) checksum beside every
// value on the wire; a body that does not match it is treated as torn.
const storeCRCHeader = "X-Sfs-Crc32c"

// wireCRC is the end-to-end checksum: identical to the CRC pack entries
// carry, so a value round-trips server disk → wire → client unchanged
// under one checksum discipline.
func wireCRC(key string, val []byte) uint32 {
	sum := crc32.Checksum([]byte(key), packCRC)
	return crc32.Update(sum, packCRC, val)
}

// Get reads the bytes stored under key into dst (see Store.Get): the
// local write-behind batch first, then the server, then the fallback
// store. Network faults, torn bodies and CRC mismatches are misses,
// never errors.
func (h *HTTPStore) Get(dst []byte, key string) ([]byte, bool) {
	dst = dst[:0]
	h.mu.Lock()
	if val, ok := h.pending[key]; ok {
		dst = append(dst, val...)
		h.mu.Unlock()
		return dst, true
	}
	if val, ok := h.inflight[key]; ok {
		dst = append(dst, val...)
		h.mu.Unlock()
		return dst, true
	}
	h.mu.Unlock()

	tel := h.telemetry()
	tel.Counter("pipeline.http_gets").Inc()
	defer tel.Histogram("pipeline.http_get_ns").ObserveSince(time.Now())
	resp, err := h.do(http.MethodGet, "/v1/store/"+key, nil)
	if err != nil {
		return h.fallbackGet(dst, key)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		tel.Counter("pipeline.http_misses").Inc()
		if h.opts.Fallback != nil {
			// Authoritative remote miss, but a local fallback may still
			// hold the entry (e.g. it absorbed a degraded batch earlier).
			if val, ok := h.opts.Fallback.Get(dst, key); ok {
				tel.Counter("pipeline.http_fallback_gets").Inc()
				return val, true
			}
		}
		return dst, false
	}
	if resp.StatusCode != http.StatusOK {
		return h.fallbackGet(dst, key)
	}
	val, err := readAppend(dst, resp.Body)
	if err != nil {
		// Torn mid-body: the connection died after the status line. A
		// miss re-executes one trace; an error would fail the run.
		tel.Counter("pipeline.http_torn").Inc()
		return val[:0], false
	}
	want, err := strconv.ParseUint(resp.Header.Get(storeCRCHeader), 16, 32)
	if err != nil || wireCRC(key, val) != uint32(want) {
		tel.Counter("pipeline.store_crc_errors").Inc()
		return val[:0], false
	}
	tel.Counter("pipeline.http_hits").Inc()
	return val, true
}

// readAppend appends everything r yields to b, growing it only when it
// is full — io.ReadAll into the caller's storage.
func readAppend(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

func (h *HTTPStore) fallbackGet(dst []byte, key string) ([]byte, bool) {
	tel := h.telemetry()
	tel.Counter("pipeline.http_errors").Inc()
	if h.opts.Fallback == nil {
		return dst, false
	}
	val, ok := h.opts.Fallback.Get(dst, key)
	if ok {
		tel.Counter("pipeline.http_fallback_gets").Inc()
	}
	return val, ok
}

// Put appends the entry to the write-behind batch; crossing FlushBytes
// ships the batch inline. Visibility is immediate (Get consults the
// batch first); durability arrives with Flush. Put never surfaces
// network faults — degraded batches land in the fallback or are
// dropped, both counted.
func (h *HTTPStore) Put(key string, data []byte) error {
	if len(key) == 0 || len(key) > 0xffff {
		return fmt.Errorf("pipeline: http store: bad key length %d", len(key))
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("pipeline: http store: closed")
	}
	if old, ok := h.pending[key]; ok {
		h.pendSize -= len(old)
	}
	val := append([]byte(nil), data...)
	h.pending[key] = val
	h.pendSize += len(val)
	if h.pendSize < h.opts.FlushBytes {
		h.mu.Unlock()
		return nil
	}
	batch := h.takeBatchLocked()
	h.mu.Unlock()
	h.shipBatch(batch)
	return nil
}

// takeBatchLocked moves the pending batch to the inflight set (still
// visible to Get) and returns it; the caller ships it outside the lock.
func (h *HTTPStore) takeBatchLocked() map[string][]byte {
	batch := h.pending
	h.pending = make(map[string][]byte)
	h.pendSize = 0
	for k, v := range batch {
		h.inflight[k] = v
	}
	return batch
}

// releaseBatch drops shipped entries from the inflight set.
func (h *HTTPStore) releaseBatch(batch map[string][]byte) {
	h.mu.Lock()
	for k := range batch {
		delete(h.inflight, k)
	}
	h.mu.Unlock()
}

// shipBatch sends one batch with retry/backoff; on exhausted retries it
// degrades to the fallback store (or drops, counted). The batch wire
// format is the pack entry layout — uint32 crc32c(key‖value), uint16
// keyLen, uint32 valLen, key, value, repeated — so both sides verify
// the same checksum the entries will carry at rest.
func (h *HTTPStore) shipBatch(batch map[string][]byte) {
	defer h.releaseBatch(batch)
	if len(batch) == 0 {
		return
	}
	tel := h.telemetry()
	var buf []byte
	for k, v := range batch {
		buf = binary.BigEndian.AppendUint32(buf, wireCRC(k, v))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, k...)
		buf = append(buf, v...)
	}
	resp, err := h.do(http.MethodPost, "/v1/store/batch", buf)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 300 {
			tel.Counter("pipeline.http_batches").Inc()
			tel.Counter("pipeline.http_batch_entries").Add(int64(len(batch)))
			return
		}
	}
	tel.Counter("pipeline.http_errors").Inc()
	if h.opts.Fallback != nil {
		for k, v := range batch {
			if h.opts.Fallback.Put(k, v) == nil {
				tel.Counter("pipeline.http_fallback_puts").Inc()
			}
		}
		return
	}
	tel.Counter("pipeline.http_dropped_puts").Add(int64(len(batch)))
}

// Flush ships the outstanding batch and runs the server-side Flush —
// the group-commit barrier covers the write-behind buffer, the wire,
// and the server's own store. Degraded batches divert to the fallback
// (then its Flush is the barrier for them); Flush itself only fails on
// a local fallback error, never on remote unavailability.
func (h *HTTPStore) Flush() error {
	h.mu.Lock()
	batch := h.takeBatchLocked()
	h.mu.Unlock()
	tel := h.telemetry()
	flushStart := time.Now()
	h.shipBatch(batch)
	if resp, err := h.do(http.MethodPost, "/v1/store/flush", nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tel.Histogram("pipeline.http_flush_ns").ObserveSince(flushStart)
	if h.opts.Fallback != nil {
		return h.opts.Fallback.Flush()
	}
	return nil
}

// Close flushes and releases the store (closing the fallback).
func (h *HTTPStore) Close() error {
	err := h.Flush()
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	if h.opts.Fallback != nil {
		if cerr := h.opts.Fallback.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats asks the server for its store's contents; an unreachable
// server reports zero entries under the "http" backend name (the
// telemetry counters, not Stats, describe degraded traffic).
func (h *HTTPStore) Stats() StoreStats {
	st := StoreStats{Backend: "http"}
	resp, err := h.do(http.MethodGet, "/v1/store/stats", nil)
	if err != nil {
		return st
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return st
	}
	var remote StoreStats
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&remote) != nil {
		return st
	}
	st.Entries = remote.Entries
	st.Segments = remote.Segments
	st.Bytes = remote.Bytes
	if remote.Backend != "" {
		st.Backend = "http/" + remote.Backend
	}
	return st
}

// do issues one request with retry/backoff: transport errors and 5xx
// responses are retried up to MaxRetries times with doubling delay;
// anything else returns as-is for the caller to interpret.
func (h *HTTPStore) do(method, path string, body []byte) (*http.Response, error) {
	tel := h.telemetry()
	backoff := h.opts.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, h.base+path, rd)
		if err != nil {
			return nil, err
		}
		resp, err := h.opts.Client.Do(req)
		if err == nil && resp.StatusCode < 500 {
			return resp, nil
		}
		if err == nil {
			lastErr = fmt.Errorf("pipeline: http store: %s %s: %s", method, path, resp.Status)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		} else {
			lastErr = err
		}
		if attempt >= h.opts.MaxRetries {
			return nil, lastErr
		}
		tel.Counter("pipeline.http_retries").Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}
