package pipeline

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// StoreHandler serves a Store over the /v1/store wire protocol
// HTTPStore speaks — the server side of the shared fleet cache.
// sfs-serve mounts it beside the job API; tests mount it on an
// httptest.Server directly.
//
// Routes (rooted wherever the handler is mounted):
//
//	GET  /v1/store/{key}   value bytes, X-Sfs-Crc32c: crc32c(key‖value)
//	PUT  /v1/store/{key}   store one value (CRC header verified if sent)
//	POST /v1/store/batch   framed entries (pack entry layout), then Flush
//	POST /v1/store/flush   group-commit barrier
//	GET  /v1/store/stats   StoreStats JSON
//
// Keys are hex digests (the cache-key contract); anything else is 400,
// which also keeps path traversal out of the namespace.
type StoreHandler struct {
	store Store
	tel   *telemetry.Registry
}

// NewStoreHandler wraps store; metrics land in reg (nil = Default).
func NewStoreHandler(store Store, reg *telemetry.Registry) *StoreHandler {
	return &StoreHandler{store: store, tel: telemetry.Or(reg)}
}

// maxStoreValueBytes bounds one uploaded value (and one whole batch);
// records are far below it.
const maxStoreValueBytes = 64 << 20

// bodyReadTimeout bounds how long the PUT and batch routes wait for a
// request body, so a client that stalls mid-upload is cut off instead of
// holding its connection. It is a deadline per request, not the server's
// ReadTimeout, which would also cut off sfs-serve's live record streams.
var bodyReadTimeout = time.Minute // tests shorten it

// readBody reads r's body, at most maxStoreValueBytes+1 bytes, within
// bodyReadTimeout. The server lifts the deadline before the connection's
// next request.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadTimeout))
	return io.ReadAll(io.LimitReader(r.Body, maxStoreValueBytes+1))
}

func (sh *StoreHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	// Tolerate both a bare mount ("/v1/store/…" arriving verbatim) and a
	// stripped one (mux passed only the tail).
	if i := strings.Index(path, "/v1/store/"); i >= 0 {
		path = path[i+len("/v1/store/"):]
	} else {
		path = strings.TrimPrefix(path, "/")
	}
	switch {
	case path == "flush" && r.Method == http.MethodPost:
		sh.flush(w)
	case path == "batch" && r.Method == http.MethodPost:
		sh.batch(w, r)
	case path == "stats" && r.Method == http.MethodGet:
		sh.stats(w)
	case isStoreKey(path) && r.Method == http.MethodGet:
		sh.get(w, path)
	case isStoreKey(path) && r.Method == http.MethodPut:
		sh.put(w, r, path)
	default:
		http.Error(w, "bad store path or method", http.StatusBadRequest)
	}
}

// isStoreKey accepts lower-case hex digests — the only keys the cache
// key contract produces.
func isStoreKey(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (sh *StoreHandler) get(w http.ResponseWriter, key string) {
	sh.tel.Counter("pipeline.store_http_gets").Inc()
	val, ok := sh.store.Get(nil, key)
	if !ok {
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	w.Header().Set(storeCRCHeader, strconv.FormatUint(uint64(wireCRC(key, val)), 16))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.Write(val)
}

func (sh *StoreHandler) put(w http.ResponseWriter, r *http.Request, key string) {
	val, err := readBody(w, r)
	if err != nil {
		http.Error(w, "torn body", http.StatusBadRequest)
		return
	}
	if len(val) > maxStoreValueBytes {
		http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
		return
	}
	if hdr := r.Header.Get(storeCRCHeader); hdr != "" {
		want, err := strconv.ParseUint(hdr, 16, 32)
		if err != nil || wireCRC(key, val) != uint32(want) {
			http.Error(w, "crc mismatch", http.StatusBadRequest)
			return
		}
	}
	if err := sh.store.Put(key, val); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sh.tel.Counter("pipeline.store_http_puts").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// batch decodes a framed entry stream (the pack entry layout), verifies
// every CRC, stores all entries and flushes — one durable round trip
// per client write-behind batch. Any malformed or CRC-failing entry
// fails the whole batch with 400 before anything of it is trusted;
// batches are idempotent (same keys, same bytes), so the client simply
// retries.
func (sh *StoreHandler) batch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		http.Error(w, "torn body", http.StatusBadRequest)
		return
	}
	if len(body) > maxStoreValueBytes {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	type entry struct {
		key string
		val []byte
	}
	var entries []entry
	for off := 0; off < len(body); {
		if len(body)-off < packHeaderLen {
			http.Error(w, "torn batch entry header", http.StatusBadRequest)
			return
		}
		crc := binary.BigEndian.Uint32(body[off : off+4])
		klen := int(binary.BigEndian.Uint16(body[off+4 : off+6]))
		vlen := int(binary.BigEndian.Uint32(body[off+6 : off+10]))
		off += int(packHeaderLen)
		if klen == 0 || off+klen+vlen > len(body) {
			http.Error(w, "torn batch entry", http.StatusBadRequest)
			return
		}
		key := string(body[off : off+klen])
		val := body[off+klen : off+klen+vlen]
		off += klen + vlen
		if !isStoreKey(key) {
			http.Error(w, fmt.Sprintf("bad key %q", key), http.StatusBadRequest)
			return
		}
		if wireCRC(key, val) != crc {
			http.Error(w, "crc mismatch in batch", http.StatusBadRequest)
			return
		}
		entries = append(entries, entry{key: key, val: val})
	}
	for _, e := range entries {
		if err := sh.store.Put(e.key, e.val); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if err := sh.store.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sh.tel.Counter("pipeline.store_http_batches").Inc()
	sh.tel.Counter("pipeline.store_http_puts").Add(int64(len(entries)))
	w.WriteHeader(http.StatusNoContent)
}

func (sh *StoreHandler) flush(w http.ResponseWriter) {
	if err := sh.store.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sh.tel.Counter("pipeline.store_http_flushes").Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (sh *StoreHandler) stats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sh.store.Stats())
}
