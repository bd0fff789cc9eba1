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

	"repro/internal/telemetry"
)

// The JSONL result file holds one record per line, in canonical order,
// and is written once, atomically, when a run succeeds (RunJSONL), when
// records are written out (WriteRecords) and when shard files are merged
// (MergeRecords). A run that fails or is cancelled writes nothing; its
// completed records are in the result store, which a rerun hits.

// usableLine is the guard on lines the pipeline did not encode itself: a
// line read from the result store is written to the JSONL file as it is
// only if it is one line and opens with rec's own key as AppendJSON
// writes it, so store bytes can never change the JSONL framing.
func usableLine(key string, line []byte) bool {
	rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	return ok && bytes.IndexByte(line, '\n') < 0 && len(rest) >= len(key)+2 &&
		string(rest[:len(key)]) == key && string(rest[len(key):len(key)+2]) == `",`
}

// WriteRecords writes records to path in canonical order, atomically and
// durably (temp file + fsync + rename + directory fsync), world-readable.
// Of records sharing a key only the first is written.
func WriteRecords(path string, records []Record) error {
	lines := make([][]byte, len(records))
	for i, rec := range records {
		lines[i] = rec.AppendJSON(nil)
	}
	_, err := writeLines(path, records, lines, nil)
	return err
}

// finalizeBufSize bounds the buffer writeLines streams a file through (a
// full-suite file is megabytes).
const finalizeBufSize = 64 << 10

// writeLines writes lines (lines[i] encodes records[i]) to path, one per
// line, in canonical record order: by name, key-tiebroken (names are
// unique across the generated suite, but user script directories make no
// such promise). Of records sharing a key only the first is written;
// equal keys mean equal records by the cache-key contract. The write is
// atomic and durable (atomicWriteFile), and first sweeps the temp files
// that writes killed before their rename left beside path (sweepOrphans,
// counted in tel). It returns the records in the order written.
func writeLines(path string, records []Record, lines [][]byte, tel *telemetry.Registry) ([]Record, error) {
	sweepOrphans(filepath.Dir(path), ".jsonl-", tel)
	seen := make(map[string]bool, len(records))
	order := make([]int, 0, len(records))
	size := 0
	for i, rec := range records {
		if seen[rec.Key] {
			continue
		}
		seen[rec.Key] = true
		order = append(order, i)
		size += len(lines[i]) + 1
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(records[a].Name, records[b].Name); c != 0 {
			return c
		}
		return strings.Compare(records[a].Key, records[b].Key)
	})
	err := atomicWriteFile(path, ".jsonl-*", func(f io.Writer) error {
		// A small file gets a buffer of its own size, not the bound.
		w := bufio.NewWriterSize(f, min(size, finalizeBufSize))
		for _, i := range order {
			w.Write(lines[i])
			w.WriteByte('\n')
		}
		return w.Flush() // reports the first failed write
	})
	if err != nil {
		return nil, err
	}
	written := make([]Record, len(order))
	for k, i := range order {
		written[k] = records[i]
	}
	return written, nil
}

// ReadRecords loads every record line of a JSONL file, in file order. A
// line that does not decode as a record with a key is an error, and so
// is a last line without its newline that does not; -merge reads shard
// files that anything may have written, and its first-key-wins rule
// would fold every keyless line into one.
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Record
	for n := 1; len(data) > 0; n++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("pipeline: %s:%d: bad record line: %w", path, n, err)
		}
		if rec.Key == "" {
			return nil, fmt.Errorf("pipeline: %s:%d: record line without a key", path, n)
		}
		out = append(out, rec)
	}
	return out, nil
}

// MergeRecords combines shard files into one canonical JSONL file,
// dropping duplicate keys (first occurrence wins; duplicates are
// byte-identical by the cache-key contract).
func MergeRecords(out string, ins ...string) error {
	var all []Record
	for _, in := range ins {
		recs, err := ReadRecords(in)
		if err != nil {
			return err
		}
		all = append(all, recs...)
	}
	return WriteRecords(out, all)
}
