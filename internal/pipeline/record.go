package pipeline

import (
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RecordError is one checker diagnosis in its serialized form, mirroring
// checker.StepError field for field.
type RecordError struct {
	Line     int      `json:"line"`
	Observed string   `json:"observed"`
	Allowed  []string `json:"allowed,omitempty"`
}

// Record is one checked trace as the pipeline persists it: the cache key,
// the full checker verdict (every Result observable, so summaries need no
// traces in memory), and the rendered checked trace (Fig 4), so `.checked`
// files and diagnosis digests can be produced from cache hits without
// re-execution. Every field is deterministic — no timestamps, durations or
// hit/miss provenance — which is what makes the finalized JSONL
// byte-identical across shard layouts, resumes and cache states.
type Record struct {
	Key      string        `json:"key"`
	Name     string        `json:"name"`
	Accepted bool          `json:"accepted"`
	Errors   []RecordError `json:"errors,omitempty"`
	Steps    int           `json:"steps"`
	// MaxStates, TauExpansions and SumStates are the oracle work metrics of
	// checker.Result, preserved so aggregated summaries match a monolithic
	// in-memory run exactly.
	MaxStates     int    `json:"max_states"`
	TauExpansions int    `json:"tau_expansions"`
	SumStates     int    `json:"sum_states"`
	CapHit        bool   `json:"cap_hit,omitempty"`
	Checked       string `json:"checked"`

	// Cached reports whether this record came from the result cache
	// rather than a fresh execution. Run-local provenance
	// only: never serialized.
	Cached bool `json:"-"`
}

// newRecord builds the record for one freshly checked trace. The checked
// trace is rendered into buf, returned for reuse, so Checked is the one
// allocation of its text.
func newRecord(buf []byte, key string, t *trace.Trace, r checker.Result) (Record, []byte) {
	buf = checker.AppendChecked(buf[:0], t, r)
	rec := Record{
		Key:           key,
		Name:          r.Name,
		Accepted:      r.Accepted,
		Steps:         r.Steps,
		MaxStates:     r.MaxStates,
		TauExpansions: r.TauExpansions,
		SumStates:     r.SumStates,
		CapHit:        r.StateSetCapHit,
		Checked:       string(buf),
	}
	if rec.Name == "" {
		rec.Name = t.Name
	}
	if len(r.Errors) > 0 {
		rec.Errors = make([]RecordError, len(r.Errors))
		for i, e := range r.Errors {
			rec.Errors[i] = RecordError{Line: e.Line, Observed: e.Observed, Allowed: e.Allowed}
		}
	}
	return rec, buf
}

// AppendJSON appends rec's JSON encoding to b and returns the extended
// slice. The bytes are exactly json.Marshal(rec)'s, HTML-safe escapes
// and all (TestRecordJSONMatchesMarshal and FuzzRecordJSON pin it), so
// cache entries and JSONL files do not depend on which of
// the two wrote them; AppendJSON needs no reflection and, given room in
// b, no allocation.
func (rec Record) AppendJSON(b []byte) []byte {
	b = appendJSONString(append(b, `{"key":`...), rec.Key)
	b = appendJSONString(append(b, `,"name":`...), rec.Name)
	b = strconv.AppendBool(append(b, `,"accepted":`...), rec.Accepted)
	if len(rec.Errors) > 0 {
		b = append(b, `,"errors":[`...)
		for i, e := range rec.Errors {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"line":`...), int64(e.Line), 10)
			b = appendJSONString(append(b, `,"observed":`...), e.Observed)
			if len(e.Allowed) > 0 {
				b = append(b, `,"allowed":[`...)
				for j, a := range e.Allowed {
					if j > 0 {
						b = append(b, ',')
					}
					b = appendJSONString(b, a)
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"steps":`...), int64(rec.Steps), 10)
	b = strconv.AppendInt(append(b, `,"max_states":`...), int64(rec.MaxStates), 10)
	b = strconv.AppendInt(append(b, `,"tau_expansions":`...), int64(rec.TauExpansions), 10)
	b = strconv.AppendInt(append(b, `,"sum_states":`...), int64(rec.SumStates), 10)
	if rec.CapHit {
		b = append(b, `,"cap_hit":true`...)
	}
	b = appendJSONString(append(b, `,"checked":`...), rec.Checked)
	return append(b, '}')
}

// jsonPlain marks the ASCII bytes encoding/json copies into a string as
// they are: printable, and neither a quote, a backslash nor one of the
// HTML-sensitive <, > and &.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as encoding/json writes a string: quoted,
// with \", \\, \b, \f, \n, \r and \t escapes, \u00XX for the other
// control bytes and for <, > and &, \ufffd for each invalid UTF-8 byte,
// and \u2028 and \u2029 for the JavaScript line separators.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// Result reconstitutes the checker verdict the record was built from.
func (rec Record) Result() checker.Result {
	r := checker.Result{
		Name:           rec.Name,
		Accepted:       rec.Accepted,
		Steps:          rec.Steps,
		MaxStates:      rec.MaxStates,
		TauExpansions:  rec.TauExpansions,
		SumStates:      rec.SumStates,
		StateSetCapHit: rec.CapHit,
	}
	for _, e := range rec.Errors {
		r.Errors = append(r.Errors, checker.StepError{
			Line: e.Line, Observed: e.Observed, Allowed: e.Allowed,
		})
	}
	return r
}

// Summarise aggregates records into the standard analysis.RunSummary —
// the bridge that lets sfs-run and sfs-report report from pipeline records
// instead of a monolithic in-memory ([]Trace, []Result) pair. The
// summary's build time goes to tel's analysis.summarise_ns (nil records
// nothing).
func Summarise(config string, records []Record, tel *telemetry.Registry) *analysis.RunSummary {
	results := make([]checker.Result, len(records))
	for i, rec := range records {
		results[i] = rec.Result()
	}
	start := time.Now()
	sum := analysis.Summarise(config, nil, results)
	if tel != nil {
		tel.Histogram("analysis.summarise_ns").ObserveSince(start)
	}
	return sum
}
