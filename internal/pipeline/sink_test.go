package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// spaced re-encodes a canonical line with a space after every comma that
// separates fields. JSON escapes '"' inside strings, so only structural
// commas are followed by a bare quote.
func spaced(line []byte) []byte {
	return bytes.ReplaceAll(line, []byte(`,"`), []byte(`, "`))
}

// TestStoredLineGuard pins the guard on lines the sink uses as-is: store
// and journal bytes that are not the record's own canonical line are
// re-marshalled, so every case finalizes byte-identical to a cold run.
func TestStoredLineGuard(t *testing.T) {
	scripts := testScripts(t, 6)
	cold := filepath.Join(t.TempDir(), "cold.jsonl")
	cfg := testConfig(scripts)
	sink, err := OpenSink(cold, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	records, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finalize(); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, cold)
	canonical := func(rec Record) []byte {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return line
	}

	// Each store case fills a fresh cache with one tampered entry per
	// record, then runs warm: every job must be a hit on a framed entry,
	// and a miss (re-executed) on a bare-JSON one.
	storeCases := []struct {
		name  string
		entry func(i int, rec Record) []byte
		hits  int
	}{
		{"framed pretty-printed JSON", func(_ int, rec Record) []byte {
			pretty, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			return encodeRecord(nil, rec, pretty)
		}, len(scripts)},
		{"framed JSON of another record", func(i int, rec Record) []byte {
			return encodeRecord(nil, rec, canonical(records[(i+1)%len(records)]))
		}, len(scripts)},
		{"bare JSON with extra whitespace", func(_ int, rec Record) []byte {
			return spaced(canonical(rec))
		}, 0},
	}
	for _, tc := range storeCases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			for i, rec := range records {
				if err := store.Put(rec.Key, tc.entry(i, rec)); err != nil {
					t.Fatal(err)
				}
			}
			warm := testConfig(scripts)
			warm.Store = store
			path := filepath.Join(t.TempDir(), "warm.jsonl")
			if st := finalizedRun(t, warm, path, false); st.CacheHits != tc.hits {
				t.Fatalf("%d cache hits, want %d", st.CacheHits, tc.hits)
			}
			if got := readFile(t, path); !bytes.Equal(got, want) {
				t.Fatalf("finalized file differs from the cold run:\n got %s\nwant %s", got, want)
			}
		})
	}

	t.Run("resumed journal with extra spaces", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "resumed.jsonl")
		var journal []byte
		for _, rec := range records {
			journal = append(append(journal, spaced(canonical(rec))...), '\n')
		}
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if st := finalizedRun(t, testConfig(scripts), path, true); st.SinkSkipped != len(scripts) {
			t.Fatalf("%d resumed, want %d", st.SinkSkipped, len(scripts))
		}
		if got := readFile(t, path); !bytes.Equal(got, want) {
			t.Fatalf("finalized file differs from the cold run:\n got %s\nwant %s", got, want)
		}
	})
}

func TestUsableLine(t *testing.T) {
	const key = "abc"
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{`{"key":"abc","name":"n"}`, true},
		{`{"key":"abc", "name":"n"}`, true}, // framing only: a stored line is trusted past its key
		{`{"key":"abd","name":"n"}`, false},
		{`{"key":"abcd","name":"n"}`, false},
		{`{"key":"ab","name":"n"}`, false},
		{`{"key":"abc"}`, false},
		{`{ "key":"abc","name":"n"}`, false},
		{"{\"key\":\"abc\",\"name\":\"n\"}\n", false},
		{"{\"key\":\"abc\",\n\"name\":\"n\"}", false},
		{``, false},
		{`{"key":"`, false},
	} {
		if got := usableLine(key, []byte(tc.line)); got != tc.ok {
			t.Errorf("usableLine(%q, %q) = %v, want %v", key, tc.line, got, tc.ok)
		}
	}
}

// FuzzSinkResume holds journal recovery to its contract on any bytes: a
// resuming OpenSink never panics or fails, cuts the file back to a
// newline-terminated prefix of what it found, and the records it kept
// are exactly what Finalize then writes and ReadRecords reads back. It
// is seeded with a real run's journal, intact and with a torn tail. The
// journal holds one record: longer seeds turn nearly every mutation into
// new coverage, and the fuzzer spends its time minimizing them.
func FuzzSinkResume(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	sink, err := OpenSink(path, false)
	if err != nil {
		f.Fatal(err)
	}
	cfg := testConfig(testScripts(f, 1))
	cfg.Sink = sink
	if _, _, err := Run(context.Background(), cfg); err != nil {
		f.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-17])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sink, err := OpenSink(path, true)
		if err != nil {
			t.Fatalf("OpenSink: %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("journal cut to %q, not a newline-terminated prefix of %q", kept, data)
		}
		want, err := sink.Finalize()
		if err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		got, err := ReadRecords(path)
		if err != nil {
			t.Fatalf("ReadRecords after Finalize: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("ReadRecords gave %d records, Finalize %d", len(got), len(want))
		}
		for i := range got {
			if !want[i].Cached {
				t.Fatalf("record %d was recovered from the journal but is not marked Cached", i)
			}
			want[i].Cached = false
			if !reflect.DeepEqual(canonicalRecord(got[i]), canonicalRecord(want[i])) {
				t.Fatalf("record %d changed:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}
