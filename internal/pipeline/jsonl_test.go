package pipeline

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// spaced re-encodes a canonical line with a space after every comma that
// separates fields. JSON escapes '"' inside strings, so only structural
// commas are followed by a bare quote.
func spaced(line []byte) []byte {
	return bytes.ReplaceAll(line, []byte(`,"`), []byte(`, "`))
}

// TestStoredLineGuard pins the guard on lines written to the JSONL file
// as they are: store and shard-file bytes that are not the record's own
// canonical line are re-marshalled, so every case writes the cold run's
// bytes.
func TestStoredLineGuard(t *testing.T) {
	scripts := testScripts(t, 6)
	cold := filepath.Join(t.TempDir(), "cold.jsonl")
	records, _, err := RunJSONL(context.Background(), testConfig(scripts), cold)
	if err != nil {
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
			store, err := OpenCache(t.TempDir(), nil)
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
			if st := finalizedRun(t, warm, path); st.CacheHits != tc.hits {
				t.Fatalf("%d cache hits, want %d", st.CacheHits, tc.hits)
			}
			if got := readFile(t, path); !bytes.Equal(got, want) {
				t.Fatalf("finalized file differs from the cold run:\n got %s\nwant %s", got, want)
			}
		})
	}

	t.Run("merged shard file with extra spaces", func(t *testing.T) {
		dir := t.TempDir()
		shard, path := filepath.Join(dir, "shard.jsonl"), filepath.Join(dir, "merged.jsonl")
		var lines []byte
		for _, rec := range records {
			lines = append(append(lines, spaced(canonical(rec))...), '\n')
		}
		if err := os.WriteFile(shard, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := MergeRecords(path, shard); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); !bytes.Equal(got, want) {
			t.Fatalf("merged file differs from the cold run:\n got %s\nwant %s", got, want)
		}
	})
}

// TestReadRecordsKeyless pins that a line without a key is an error
// naming its file and line, not a record that -merge's first-key-wins
// rule folds into every other keyless line.
func TestReadRecordsKeyless(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ data, line string }{
		{"{}\n", ":1:"},
		{`{"key":"a","name":"a"}` + "\n" + `{"name":"b"}` + "\n", ":2:"},
		{`{"key":"a","name":"a"}` + "\nnull\n", ":2:"},
		{`{"key":"a","name":"a"}` + "\n" + `{"key":"","name":"c"}`, ":2:"},
	} {
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadRecords(in)
		if err == nil || !strings.Contains(err.Error(), in+tc.line) {
			t.Errorf("ReadRecords(%q) = %v, want an error naming %s%s", tc.data, err, in, tc.line)
		}
		if err := MergeRecords(filepath.Join(dir, "out.jsonl"), in); err == nil {
			t.Errorf("MergeRecords of %q succeeded", tc.data)
		}
	}
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

// FuzzReadRecords holds the last JSONL decoder to its contract on any
// bytes, since -merge reads shard files anything may have written:
// ReadRecords gives records or an error, never a panic, and the records
// it gives survive WriteRecords and ReadRecords unchanged (the first of
// each key, in canonical order). It is seeded with a real run's file,
// intact and cut inside its last line, and with a record that has errors.
func FuzzReadRecords(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.jsonl")
	if _, _, err := RunJSONL(context.Background(), testConfig(testScripts(f, 1)), path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-17])
	withErrors := Record{Key: "k", Name: "n", Errors: []RecordError{{Line: 3, Observed: "EEXIST", Allowed: []string{"ENOENT"}}}}
	f.Add(append(withErrors.AppendJSON(nil), '\n'))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, out := filepath.Join(dir, "in.jsonl"), filepath.Join(dir, "out.jsonl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadRecords(in)
		if err != nil {
			return
		}
		if err := WriteRecords(out, recs); err != nil {
			t.Fatalf("WriteRecords: %v", err)
		}
		got, err := ReadRecords(out)
		if err != nil {
			t.Fatalf("ReadRecords of what WriteRecords wrote: %v", err)
		}
		seen := make(map[string]bool)
		var want []Record
		for _, rec := range recs {
			if !seen[rec.Key] {
				seen[rec.Key] = true
				want = append(want, canonicalRecord(rec))
			}
		}
		slices.SortFunc(want, func(a, b Record) int {
			return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Key, b.Key))
		})
		if len(got) != len(want) {
			t.Fatalf("read back %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(canonicalRecord(got[i]), want[i]) {
				t.Fatalf("record %d changed:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}
