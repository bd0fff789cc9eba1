package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// storeFixture builds one Store backend for the shared conformance
// suite. corrupt damages the stored entry for key (whose value is val)
// in whatever way that backend can be damaged — bit-flipping pack
// segment bytes, tampering the wire body — after
// which the contract demands a miss, never an error.
type storeFixture struct {
	name  string
	setup func(t *testing.T) (Store, func(t *testing.T, key string, val []byte))
}

func storeFixtures() []storeFixture {
	return []storeFixture{
		{
			name: "pack",
			setup: func(t *testing.T) (Store, func(*testing.T, string, []byte)) {
				dir := t.TempDir()
				p, err := OpenPackStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				corrupt := func(t *testing.T, _ string, val []byte) {
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
					flipValueOnDisk(t, dir, val)
				}
				return p, corrupt
			},
		},
		{
			name: "http",
			setup: func(t *testing.T) (Store, func(*testing.T, string, []byte)) {
				backing, err := OpenPackStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { backing.Close() })
				var mu sync.Mutex
				tampered := map[string]bool{}
				inner := NewStoreHandler(backing, telemetry.NewRegistry())
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					key := strings.TrimPrefix(r.URL.Path, "/v1/store/")
					mu.Lock()
					bad := r.Method == http.MethodGet && tampered[key]
					mu.Unlock()
					if !bad {
						inner.ServeHTTP(w, r)
						return
					}
					// Serve the true CRC header over a bit-flipped body —
					// exactly what a torn cache entry looks like on the wire.
					val, ok := backing.Get(nil, key)
					if !ok {
						http.Error(w, "miss", http.StatusNotFound)
						return
					}
					w.Header().Set(storeCRCHeader, strconv.FormatUint(uint64(wireCRC(key, val)), 16))
					mangled := append([]byte(nil), val...)
					mangled[0] ^= 0x01
					w.Write(mangled)
				}))
				t.Cleanup(srv.Close)
				h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				corrupt := func(t *testing.T, key string, _ []byte) {
					if err := h.Flush(); err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					tampered[key] = true
					mu.Unlock()
				}
				return h, corrupt
			},
		},
	}
}

// flipValueOnDisk locates val's bytes inside any file under dir and
// flips one bit — simulated at-rest corruption for checksummed stores.
func flipValueOnDisk(t *testing.T, dir string, val []byte) {
	t.Helper()
	var flipped bool
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || flipped {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		i := bytes.Index(data, val)
		if i < 0 {
			return nil
		}
		data[i] ^= 0x01
		flipped = true
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("value bytes not found in any file; cannot corrupt")
	}
}

// TestStoreConformance pins the Store contract every backend must obey
// — local pack and the remote HTTP store behind one table: round-trip, overwrite idempotence, Flush visibility, and
// corruption-is-a-miss (never an error). Every read goes into one reused
// buffer as well as into a nil one (getReused): both must return the
// same bytes, and a miss an empty slice.
func TestStoreConformance(t *testing.T) {
	for _, fx := range storeFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, corrupt := fx.setup(t)
			defer s.Close()
			buf := staleBuffer()

			key, val := testKey(1), []byte("conformance value one")
			if _, ok := getReused(t, s, &buf, key); ok {
				t.Fatal("miss expected on empty store")
			}
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			// Read-your-writes before any Flush.
			if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("pre-flush get: %q, %v", got, ok)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("post-flush get: %q, %v", got, ok)
			}

			// Overwrite idempotence: same bytes again, then new bytes.
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("idempotent re-put get: %q, %v", got, ok)
			}
			val2 := []byte("conformance value two")
			if err := s.Put(key, val2); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val2) {
				t.Fatalf("overwrite get: %q, %v", got, ok)
			}

			// Corruption is a miss, never an error — and other keys are
			// unaffected.
			victim, victimVal := testKey(2), []byte("victim value with unique bytes 0xDECAFBAD")
			if err := s.Put(victim, victimVal); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, victim, victimVal)
			if got, ok := getReused(t, s, &buf, victim); ok {
				t.Fatalf("corrupted entry served as a hit: %q", got)
			}
			if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val2) {
				t.Fatalf("healthy key lost after corrupting another: %q, %v", got, ok)
			}
		})
	}
}

// fastHTTPOpts keeps fault-path tests quick: one retry, 1ms backoff.
func fastHTTPOpts(fallback Store) HTTPStoreOptions {
	return HTTPStoreOptions{
		MaxRetries:   1,
		RetryBackoff: 1,
		Fallback:     fallback,
	}
}

// TestHTTPStoreServerDownFallback pins the degradation ladder when the
// daemon is unreachable mid-batch: Put and Flush still succeed, the
// batch lands in the local fallback store, and reads are answered from
// it — the run survives, telemetry says what the server never saw.
func TestHTTPStoreServerDownFallback(t *testing.T) {
	srv := httptest.NewServer(NewStoreHandler(mustPack(t), telemetry.NewRegistry()))
	url := srv.URL
	srv.Close() // server is down before the first byte

	fallback, err := OpenPackStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := OpenHTTPStore(url, fastHTTPOpts(fallback))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	key, val := testKey(3), []byte("survives the outage")
	if err := h.Put(key, val); err != nil {
		t.Fatalf("Put must not surface network faults: %v", err)
	}
	if err := h.Flush(); err != nil {
		t.Fatalf("Flush must not surface remote unavailability: %v", err)
	}
	if got, ok := h.Get(nil, key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("fallback read: %q, %v", got, ok)
	}
	if n := reg.Counter("pipeline.http_fallback_puts").Value(); n != 1 {
		t.Fatalf("http_fallback_puts = %d, want 1", n)
	}
	if n := reg.Counter("pipeline.http_fallback_gets").Value(); n == 0 {
		t.Fatal("http_fallback_gets not counted")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPStoreServerDownNoFallback: with no fallback configured the
// batch is dropped — counted, not fatal — and reads are plain misses.
func TestHTTPStoreServerDownNoFallback(t *testing.T) {
	h, err := OpenHTTPStore("http://127.0.0.1:1", fastHTTPOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	key := testKey(4)
	if err := h.Put(key, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatalf("Flush must not fail on a dead server: %v", err)
	}
	if _, ok := h.Get(nil, key); ok {
		t.Fatal("dropped entry must read as a miss")
	}
	if n := reg.Counter("pipeline.http_dropped_puts").Value(); n != 1 {
		t.Fatalf("http_dropped_puts = %d, want 1", n)
	}
}

// TestHTTPStoreRetries5xx pins retry/backoff: transient 5xx responses
// are retried with backoff and the request then succeeds; the retries
// are visible in telemetry.
func TestHTTPStoreRetries5xx(t *testing.T) {
	backing := mustPack(t)
	inner := NewStoreHandler(backing, telemetry.NewRegistry())
	var mu sync.Mutex
	failures := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{MaxRetries: 3, RetryBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	key, val := testKey(5), []byte("after retries")
	if err := h.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := backing.Get(nil, key); !ok {
		t.Fatal("batch did not reach the server after retries")
	}
	if n := reg.Counter("pipeline.http_retries").Value(); n != 2 {
		t.Fatalf("http_retries = %d, want 2", n)
	}
	if n := reg.Counter("pipeline.http_batches").Value(); n != 1 {
		t.Fatalf("http_batches = %d, want 1", n)
	}
}

// TestHTTPStoreTornResponseBody pins the torn-read path: a response
// that dies mid-body (Content-Length promises more than arrives) is a
// miss, never an error, and is counted as pipeline.http_torn.
func TestHTTPStoreTornResponseBody(t *testing.T) {
	backing := mustPack(t)
	inner := NewStoreHandler(backing, telemetry.NewRegistry())
	key, val := testKey(6), []byte("this body will be cut short on the wire")
	if err := backing.Put(key, val); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, key) {
			w.Header().Set(storeCRCHeader, strconv.FormatUint(uint64(wireCRC(key, val)), 16))
			w.Header().Set("Content-Length", strconv.Itoa(len(val)))
			w.Write(val[:len(val)/2]) // connection closes with bytes owed
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	h, err := OpenHTTPStore(srv.URL, fastHTTPOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	if _, ok := h.Get(nil, key); ok {
		t.Fatal("torn body served as a hit")
	}
	if n := reg.Counter("pipeline.http_torn").Value(); n != 1 {
		t.Fatalf("http_torn = %d, want 1", n)
	}
}

// TestHTTPStoreBatchRejectsBadCRC pins the server-side verification:
// a batch whose entry CRC does not match is rejected whole (400) and
// nothing from it is stored.
func TestHTTPStoreBatchRejectsBadCRC(t *testing.T) {
	backing := mustPack(t)
	srv := httptest.NewServer(NewStoreHandler(backing, telemetry.NewRegistry()))
	defer srv.Close()

	key, val := testKey(7), []byte("tampered in transit")
	var buf []byte
	buf = appendBatchEntry(buf, key, val)
	buf[0] ^= 0x01 // break the CRC
	resp, err := http.Post(srv.URL+"/v1/store/batch", "application/octet-stream", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if _, ok := backing.Get(nil, key); ok {
		t.Fatal("CRC-failing batch entry was stored")
	}
}

// appendBatchEntry frames one entry in the batch wire format.
func appendBatchEntry(buf []byte, key string, val []byte) []byte {
	buf = append(buf, byte(wireCRC(key, val)>>24), byte(wireCRC(key, val)>>16), byte(wireCRC(key, val)>>8), byte(wireCRC(key, val)))
	buf = append(buf, byte(len(key)>>8), byte(len(key)))
	buf = append(buf, byte(len(val)>>24), byte(len(val)>>16), byte(len(val)>>8), byte(len(val)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// TestHTTPStoreStats pins Stats plumbing: the client reports the
// server store's contents under a combined backend name.
func TestHTTPStoreStats(t *testing.T) {
	backing := mustPack(t)
	srv := httptest.NewServer(NewStoreHandler(backing, telemetry.NewRegistry()))
	defer srv.Close()

	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put(testKey(8), []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Backend != "http/pack" {
		t.Fatalf("backend = %q, want http/pack", st.Backend)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestStoreHandlerCutsOffStalledBody: a PUT or batch upload whose body
// stalls part-way is answered and its connection dropped once
// bodyReadTimeout passes, and nothing of it is stored.
func TestStoreHandlerCutsOffStalledBody(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	store := mustPack(t)
	srv := httptest.NewServer(NewStoreHandler(store, telemetry.NewRegistry()))
	defer srv.Close()
	for _, route := range []string{"PUT /v1/store/" + testKey(1), "POST /v1/store/batch"} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Promise 100 body bytes, send 7, then stall.
		fmt.Fprintf(conn, "%s HTTP/1.1\r\nHost: store\r\nContent-Length: 100\r\n\r\npartial", route)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("%s: connection still open 5s after the body stalled: %v", route, err)
		}
		if !bytes.HasPrefix(resp, []byte("HTTP/1.1 400")) {
			t.Errorf("%s: response %q, want a 400", route, resp)
		}
	}
	if n := store.Stats().Entries; n != 0 {
		t.Errorf("%d entries stored from stalled uploads", n)
	}
}

func mustPack(t testing.TB) *PackStore {
	t.Helper()
	p, err := OpenPackStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}
