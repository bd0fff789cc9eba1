package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// FuzzStoreBatch holds POST /v1/store/batch to its contract on any body:
// StoreHandler never panics; a 4xx stores nothing of the batch; a 204
// makes every entry readable with its exact bytes (the last value of a
// repeated key), and only entries whose CRC verifies are accepted. Every
// read also goes into one reused buffer (getReused), from the flushed
// segment and, once each value is put back, from the group-commit
// buffer: the bytes must equal a read into nil, and every miss must
// return an empty slice. It is seeded with the batches HTTPStore's writer
// sent for a real Run's records, intact, torn and with a flipped byte.
func FuzzStoreBatch(f *testing.F) {
	var mu sync.Mutex
	var batches [][]byte
	backend := NewStoreHandler(mustPack(f), telemetry.NewRegistry())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/batch") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "torn body", http.StatusBadRequest)
				return
			}
			mu.Lock()
			batches = append(batches, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()
	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	cfg := testConfig(testScripts(f, 3))
	cfg.Store = h
	if _, _, err := Run(context.Background(), cfg); err != nil {
		f.Fatal(err)
	}
	if err := h.Close(); err != nil {
		f.Fatal(err)
	}
	if len(batches) == 0 {
		f.Fatal("the run sent no batch")
	}
	for _, b := range batches {
		f.Add(b)
		f.Add(b[:len(b)-5])
		flipped := bytes.Clone(b)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		store, err := OpenPackStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/store/batch", bytes.NewReader(body))
		NewStoreHandler(store, telemetry.NewRegistry()).ServeHTTP(rec, req)
		buf := staleBuffer()
		switch code := rec.Code; {
		case code == http.StatusNoContent:
			want, ok := decodeBatch(body)
			if !ok {
				t.Fatalf("204 for a batch with a torn or CRC-failing entry: %q", body)
			}
			const probe = "\x00fuzz-probe"
			if _, ok := getReused(t, store, &buf, probe); ok != (want[probe] != nil) {
				t.Fatalf("Get(%q) hit %v; the batch holds it: %v", probe, ok, want[probe] != nil)
			}
			for key, val := range want {
				if got, ok := getReused(t, store, &buf, key); !ok || !bytes.Equal(got, val) {
					t.Fatalf("after 204, Get(%q) = %q, %v; want %q", key, got, ok, val)
				}
			}
			if n := store.Stats().Entries; n != len(want) {
				t.Fatalf("after 204 the store holds %d entries; the batch has %d keys", n, len(want))
			}
			for key, val := range want {
				if err := store.Put(key, val); err != nil {
					t.Fatal(err)
				}
				if got, ok := getReused(t, store, &buf, key); !ok || !bytes.Equal(got, val) {
					t.Fatalf("pending Get(%q) = %q, %v; want %q", key, got, ok, val)
				}
			}
		case code >= 400 && code < 500:
			if _, ok := getReused(t, store, &buf, testKey(1)); ok {
				t.Fatalf("%d, yet a key hit", code)
			}
			if n := store.Stats().Entries; n != 0 {
				t.Fatalf("%d left %d entries of the refused batch in the store", code, n)
			}
		default:
			t.Fatalf("status %d: %s", code, rec.Body)
		}
	})
}

// decodeBatch walks a batch body in the pack entry layout independently
// of StoreHandler: each entry's key and value, the last value of a
// repeated key winning. It reports false for a torn entry, an empty key
// or an entry whose CRC does not verify.
func decodeBatch(body []byte) (map[string][]byte, bool) {
	out := map[string][]byte{}
	for len(body) > 0 {
		if len(body) < packHeaderLen {
			return nil, false
		}
		crc := binary.BigEndian.Uint32(body)
		klen := int(binary.BigEndian.Uint16(body[4:]))
		vlen := int(binary.BigEndian.Uint32(body[6:]))
		body = body[packHeaderLen:]
		if klen == 0 || klen+vlen > len(body) {
			return nil, false
		}
		key, val := string(body[:klen]), body[klen:klen+vlen]
		if wireCRC(key, val) != crc {
			return nil, false
		}
		out[key] = val
		body = body[klen+vlen:]
	}
	return out, true
}
