package pipeline

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
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

// TestStoredLineGuard pins the guard on lines the sink uses as-is: store
// and journal bytes that are not the record's own canonical line are
// re-marshalled, so every case finalizes byte-identical to a cold run.
func TestStoredLineGuard(t *testing.T) {
	scripts := testScripts(t, 6)
	cold := filepath.Join(t.TempDir(), "cold.jsonl")
	cfg := testConfig(scripts)
	sink, err := OpenSink(cold, false, nil)
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
	sink, err := OpenSink(path, false, nil)
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
		sink, err := OpenSink(path, true, nil)
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

// FuzzSinkAppend holds the journal to its contract on any sequence of
// appends and interval flushes. Each input byte below 16 is an interval
// flush; 0xff is a line larger than the largest journal chunk (at most
// two per input); any other byte appends a record whose line grows with
// the byte, so lines cross chunk boundaries. Throughout, the journal file
// ends at a boundary of the appended lines; once flushed it
// holds every line in append order, each followed by '\n'; a copy cut at
// a byte the input picks recovers, on resume, exactly the whole lines
// before the cut; Finalize writes the lines in canonical order and
// returns the records in the order of the file.
func FuzzSinkAppend(f *testing.F) {
	f.Add([]byte{40, 200, 0, 255, 3, 90})
	f.Add(bytes.Repeat([]byte{250, 251, 7}, 40))
	f.Add([]byte{0xff, 20, 0, 0xff, 30})
	f.Fuzz(func(t *testing.T, ops []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		sink, err := OpenSink(path, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		flush := func() {
			t.Helper()
			sink.mu.Lock()
			err := sink.flushLocked(false)
			sink.mu.Unlock()
			if err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
		var journal []byte // every appended line, in order, with its '\n'
		var recs []Record
		var lines [][]byte // lines[i] is recs[i]'s line
		big := 0
		for i, op := range ops {
			if op < 16 {
				// The content is compared once, at the end; an append-only
				// file that ends at a line boundary here holds whole lines.
				flush()
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := int(info.Size()); n > len(journal) || (n > 0 && journal[n-1] != '\n') {
					t.Fatalf("after %d appends the journal holds %d bytes, not whole lines of the %d appended", len(recs), n, len(journal))
				}
				continue
			}
			size := int(op-16) * 17
			if op == 0xff && big < 2 {
				big++
				size = sinkFlushBytes + i
			}
			rec := Record{
				Key:     fmt.Sprintf("%064x", i),
				Name:    fmt.Sprintf("fuzz___%02d", (int(op)*7+i)%31),
				Steps:   i,
				Checked: strings.Repeat("c", size),
			}
			line := rec.AppendJSON(nil)
			if op%3 == 0 {
				err = sink.Append(rec)
			} else {
				err = sink.AppendEncoded(rec, line)
			}
			if err != nil {
				t.Fatal(err)
			}
			journal = append(append(journal, line...), '\n')
			recs, lines = append(recs, rec), append(lines, line)
		}
		flush()
		if got := readFile(t, path); !bytes.Equal(got, journal) {
			t.Fatalf("flushed journal holds %d bytes, the appended lines %d", len(got), len(journal))
		}

		for j := 0; j < min(len(ops), 2); j++ {
			cut := (int(ops[j])*len(journal)/255 + j) % (len(journal) + 1)
			cutPath := filepath.Join(t.TempDir(), "cut.jsonl")
			if err := os.WriteFile(cutPath, journal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			resumed, err := OpenSink(cutPath, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			whole := bytes.Count(journal[:cut], []byte{'\n'})
			if resumed.Len() != whole {
				t.Fatalf("a journal cut at byte %d of %d recovered %d records, want the %d whole lines", cut, len(journal), resumed.Len(), whole)
			}
			for k := range whole {
				if resumed.records[k].Key != recs[k].Key {
					t.Fatalf("cut at byte %d: record %d is %s, want %s", cut, k, resumed.records[k].Key, recs[k].Key)
				}
			}
			resumed.Close()
		}

		order := make([]int, len(recs))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(strings.Compare(recs[a].Name, recs[b].Name), strings.Compare(recs[a].Key, recs[b].Key))
		})
		var canonical []byte
		for _, i := range order {
			canonical = append(append(canonical, lines[i]...), '\n')
		}
		written, err := sink.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); !bytes.Equal(got, canonical) {
			t.Fatalf("finalized file holds %d bytes; the canonical sort of the lines is %d", len(got), len(canonical))
		}
		if len(written) != len(order) {
			t.Fatalf("Finalize returned %d records, the file holds %d", len(written), len(order))
		}
		for k, i := range order {
			if !reflect.DeepEqual(written[k], recs[i]) {
				t.Fatalf("Finalize returned record %d as %s; the file holds %s there", k, written[k].Key, recs[i].Key)
			}
		}
	})
}
