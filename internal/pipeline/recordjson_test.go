package pipeline

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// jsonEdgeStrings are the strings where encoding/json does more than copy
// bytes: HTML-sensitive characters, quotes and backslashes, every kind of
// control byte (\b and \f have short escapes), invalid UTF-8, the
// JavaScript line separators, and valid multi-byte text around them.
var jsonEdgeStrings = []string{
	"",
	"plain ascii",
	`<a href="x">&amp;</a>`,
	`back\slash "quoted"`,
	"\x00\x01\x07\x1b\x1f",
	"\b\f\n\r\t\v",
	"del \x7f",
	"bad \xff\xfe utf8",
	"cut \xe2\x80",
	"surrogate \xed\xa0\x80",
	"overlong \xc0\xaf",
	"sep\u2028par\u2029end",
	"\ufffd literal replacement",
	"\u00e9 \u65e5\u672c \U0001F600",
	"\u2027\u202a near the separators",
	"mkdir \"d\" 0o755\n# Error: 3: ENOENT\n",
}

// TestRecordJSONMatchesMarshal pins Record.AppendJSON to json.Marshal,
// byte for byte: cache entries and JSONL files hold its
// lines, so any drift would move golden digests and cache keys' values.
func TestRecordJSONMatchesMarshal(t *testing.T) {
	check := func(rec Record) {
		t.Helper()
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		// Appending after existing bytes leaves them alone.
		if got := rec.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON after a prefix: %q", got)
		}
	}
	for _, s := range jsonEdgeStrings {
		check(Record{
			Key: s, Name: s, Checked: s,
			Errors: []RecordError{{Line: 1, Observed: s, Allowed: []string{s, s}}},
		})
	}
	// nil and empty slices both omit their field; CapHit only when set.
	check(Record{Key: "k", Errors: nil})
	check(Record{Key: "k", Errors: []RecordError{}})
	check(Record{Key: "k", Errors: []RecordError{{Line: 2, Allowed: nil}, {Line: 3, Allowed: []string{}}}})
	check(Record{Key: "k", CapHit: true, Accepted: true})
	check(Record{Key: "k", Steps: -1, MaxStates: 1 << 40, TauExpansions: -1 << 40, SumStates: 7})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		check(randomRecord(rng))
	}
}

// randomRecord builds a record of random shape from random strings.
func randomRecord(rng *rand.Rand) Record {
	rec := Record{
		Key: randomJSONString(rng), Name: randomJSONString(rng),
		Accepted: rng.Intn(2) == 0, CapHit: rng.Intn(4) == 0,
		Steps: rng.Intn(1000), MaxStates: rng.Intn(100), TauExpansions: rng.Intn(1 << 20),
		SumStates: rng.Int() - rng.Int(), Checked: randomJSONString(rng),
	}
	switch n := rng.Intn(5); n {
	case 0:
	case 1:
		rec.Errors = []RecordError{}
	default:
		for range n - 1 {
			e := RecordError{Line: rng.Intn(200), Observed: randomJSONString(rng)}
			switch m := rng.Intn(4); m {
			case 0:
			case 1:
				e.Allowed = []string{}
			default:
				for range m {
					e.Allowed = append(e.Allowed, randomJSONString(rng))
				}
			}
			rec.Errors = append(rec.Errors, e)
		}
	}
	return rec
}

// randomJSONString mixes plain runs, edge strings and random bytes.
func randomJSONString(rng *rand.Rand) string {
	var b strings.Builder
	for range rng.Intn(6) {
		switch rng.Intn(4) {
		case 0:
			b.WriteString("open \"d/f\" [O_CREAT]")
		case 1:
			b.WriteString(jsonEdgeStrings[rng.Intn(len(jsonEdgeStrings))])
		case 2:
			for range rng.Intn(8) {
				b.WriteByte(byte(rng.Intn(256)))
			}
		default:
			b.WriteRune(rune(rng.Intn(0x30000)))
		}
	}
	return b.String()
}

// FuzzRecordJSON checks the same property on fuzzed fields: AppendJSON
// equals json.Marshal for any strings, counts and flags.
func FuzzRecordJSON(f *testing.F) {
	for i, s := range jsonEdgeStrings {
		f.Add(s, s, s, s, i, i%2 == 0, i%3 == 0, uint8(i%4))
	}
	f.Fuzz(func(t *testing.T, key, name, text, allowed string, n int, accepted, capHit bool, errs uint8) {
		rec := Record{
			Key: key, Name: name, Accepted: accepted, CapHit: capHit,
			Steps: n, MaxStates: n / 2, TauExpansions: -n, SumStates: n, Checked: text,
		}
		switch errs % 4 {
		case 1:
			rec.Errors = []RecordError{}
		case 2:
			rec.Errors = []RecordError{{Line: n, Observed: text}}
		case 3:
			rec.Errors = []RecordError{{Line: n, Observed: name, Allowed: []string{allowed, key}}, {Allowed: []string{}}}
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	})
}
