package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func codecTestRecord() Record {
	rec := Record{Key: "k0", Name: "t_open.script"}
	rec.Errors = []RecordError{
		{Line: 3, Observed: "ENOENT", Allowed: []string{"EACCES", "EPERM"}},
		{Line: 7, Observed: "RV_NONE", Allowed: nil},
	}
	rec.Steps = 12
	rec.MaxStates = 34
	rec.TauExpansions = 5
	rec.SumStates = 99
	rec.CapHit = true
	rec.Checked = "@ t_open.script\nopen \"f\" [O_RDONLY]\nENOENT\n"
	return rec
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rec := codecTestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecord(nil, rec, line)
	got, gotLine, ok := decodeRecord(data, rec.Key)
	if !ok {
		t.Fatal("decodeRecord: not ok")
	}
	if !bytes.Equal(gotLine, line) {
		t.Fatalf("embedded line mismatch:\n got %q\nwant %q", gotLine, line)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

// TestRecordCodecBareJSON pins that a record's bare JSON line — the v1
// entry format — is a miss, while the same record framed decodes.
func TestRecordCodecBareJSON(t *testing.T) {
	rec := codecTestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := decodeRecord(line, rec.Key); ok {
		t.Fatal("decodeRecord on bare JSON: ok, want a miss")
	}
	if _, _, ok := decodeRecord(encodeRecord(nil, rec, line), rec.Key); !ok {
		t.Fatal("decodeRecord on the framed record: not ok")
	}
}

func TestRecordCodecDamagedBinaryFallsBackToJSON(t *testing.T) {
	rec := codecTestRecord()
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecord(nil, rec, line)
	// Truncate into the binary tail: the embedded JSON (which sits right
	// after the magic and length) stays intact and must win.
	for _, cut := range []int{len(data) - 1, len(data) - 10, len(recMagic) + 4 + len(line)} {
		got, gotLine, ok := decodeRecord(data[:cut], rec.Key)
		if !ok {
			t.Fatalf("cut=%d: decode failed despite intact embedded JSON", cut)
		}
		if !bytes.Equal(gotLine, line) {
			t.Fatalf("cut=%d: line mismatch", cut)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("cut=%d: record mismatch", cut)
		}
	}
	// Garbage that is neither framed nor JSON is a miss, not an error.
	for _, data := range [][]byte{[]byte("sfsrec1\x00\xff\xff\xff\xff"), []byte("not json")} {
		if _, _, ok := decodeRecord(data, "k"); ok {
			t.Fatalf("%q decoded as ok", data)
		}
	}
}

// TestRecordCodecCraftedCount: counts in the binary part size
// allocations, so a count the entry cannot hold must fail the binary
// decode (falling back to the embedded JSON) instead of asking the
// runtime for gigabytes — an out-of-memory abort no recover can catch.
func TestRecordCodecCraftedCount(t *testing.T) {
	rec := codecTestRecord()
	rec.Errors = nil // the last 4 bytes are then the error count
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecord(nil, rec, line)
	binary.BigEndian.PutUint32(data[len(data)-4:], 0xFFFFFFFF)
	got, gotLine, ok := decodeRecord(data, rec.Key)
	if !ok {
		t.Fatal("decode failed despite intact embedded JSON")
	}
	if !bytes.Equal(gotLine, line) || !reflect.DeepEqual(got, rec) {
		t.Fatalf("crafted count did not fall back to the embedded JSON: got %+v", got)
	}
}

// FuzzDecodeRecord: any stored bytes decode without panicking, bytes
// without the frame tag are a miss, and any record that decodes
// re-encodes (encodeRecord with its canonical JSON) to an entry that
// decodes back to the same record and the same line. The corpus is
// seeded with records shaped like the golden fixtures', the codec test
// record, and that record as a bare-JSON (v1) entry.
//
//	go test -run '^$' -fuzz FuzzDecodeRecord -fuzztime 20s ./internal/pipeline/
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range goldenRecords(f) {
		f.Add(mustEncode(f, rec))
	}
	rec := codecTestRecord()
	f.Add(mustEncode(f, rec))
	line, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, ok := decodeRecord(data, "k")
		if ok && !bytes.HasPrefix(data, []byte(recMagic)) {
			t.Fatalf("unframed value decoded: %q", data)
		}
		if !ok || !fitsUint32(rec) {
			return
		}
		rec = canonicalRecord(rec)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, gotLine, ok := decodeRecord(encodeRecord(nil, rec, line), "k")
		if !ok {
			t.Fatalf("re-encoded record does not decode: %+v", rec)
		}
		if !bytes.Equal(gotLine, line) {
			t.Fatalf("line mismatch:\n got %q\nwant %q", gotLine, line)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record mismatch:\n got %+v\nwant %+v", got, rec)
		}
	})
}

func mustEncode(tb testing.TB, rec Record) []byte {
	line, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return encodeRecord(nil, rec, line)
}

// goldenRecords builds records from a sample of the golden fixtures'
// per-trace verdicts.
func goldenRecords(tb testing.TB) []Record {
	type trace struct {
		Name          string `json:"name"`
		Accepted      bool   `json:"accepted"`
		Steps         int    `json:"steps"`
		MaxStates     int    `json:"max_states"`
		TauExpansions int    `json:"tau_expansions"`
		SumStates     int    `json:"sum_states"`
	}
	var oracle map[string]struct{ Traces []trace }
	var crash struct{ Traces []trace }
	for path, v := range map[string]any{"oracle_golden.json": &oracle, "crash_golden.json": &crash} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", path))
		if err != nil {
			tb.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
	}
	names := make([]string, 0, len(oracle))
	for name := range oracle {
		names = append(names, name)
	}
	sort.Strings(names)
	traces := crash.Traces
	for _, name := range names {
		traces = append(traces, oracle[name].Traces...)
	}
	var recs []Record
	for i, tr := range traces {
		if i%50 != 0 {
			continue
		}
		recs = append(recs, Record{
			Key: "k", Name: tr.Name, Accepted: tr.Accepted, Steps: tr.Steps,
			MaxStates: tr.MaxStates, TauExpansions: tr.TauExpansions, SumStates: tr.SumStates,
			Checked: "@ " + tr.Name + "\n",
		})
	}
	if len(recs) == 0 {
		tb.Fatal("no golden records")
	}
	return recs
}

// fitsUint32 reports whether every integer field is one the binary part
// can carry: it stores them as uint32, and only a hand-written JSON
// entry can hold a negative or larger value.
func fitsUint32(rec Record) bool {
	ok := func(n int) bool { return n >= 0 && n <= math.MaxUint32 }
	for _, e := range rec.Errors {
		if !ok(e.Line) {
			return false
		}
	}
	return ok(rec.Steps) && ok(rec.MaxStates) && ok(rec.TauExpansions) && ok(rec.SumStates)
}

// canonicalRecord replaces empty slices with nil, as the binary part
// decodes them; both marshal to the same JSON.
func canonicalRecord(rec Record) Record {
	if len(rec.Errors) == 0 {
		rec.Errors = nil
	}
	for i := range rec.Errors {
		if len(rec.Errors[i].Allowed) == 0 {
			rec.Errors[i].Allowed = nil
		}
	}
	return rec
}
