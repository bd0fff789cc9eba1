package pipeline

import (
	"fmt"
	"testing"
)

// PackStore microbenchmarks on the three operations the pipeline
// actually issues — warm lookups (Get), cold stores with a barrier per
// record (Put+Flush), and cold stores amortized through group commit
// (many Puts, one Flush). The Put-vs-BatchPut gap is what group commit
// buys: one fsync per batch instead of one per record.

func benchKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

// benchValue approximates a pipeline record: ~600 bytes of JSON-ish text.
var benchValue = []byte(fmt.Sprintf(`{"name":"bench","key":%q,"checked":%q,"accepted":true}`,
	benchKey(0), string(make([]byte, 512))))

// BenchmarkStoreGet measures warm lookups over a prepopulated store —
// the cache-hit path a warm full-suite run takes ~21k times — reading
// into one reused buffer, as a pipeline worker does.
func BenchmarkStoreGet(b *testing.B) {
	s, err := OpenPackStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	const n = 2048
	for i := 0; i < n; i++ {
		if err := s.Put(benchKey(i), benchValue); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = s.Get(buf, benchKey(i%n)); !ok {
			b.Fatal("miss")
		}
	}
	b.StopTimer()
	s.Close()
}

// BenchmarkStorePut measures the per-record durable store: one Put
// followed by its barrier, the worst case: one fsync per record.
func BenchmarkStorePut(b *testing.B) {
	s, err := OpenPackStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchKey(i), benchValue); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
}

// BenchmarkStoreBatchPut measures the pipeline's actual cold-run shape:
// a batch of stores with one group-commit barrier at the end, which
// coalesces the whole batch into one write+fsync.
func BenchmarkStoreBatchPut(b *testing.B) {
	const batch = 256
	s, err := OpenPackStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			if err := s.Put(benchKey(i*batch+j), benchValue); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
}
