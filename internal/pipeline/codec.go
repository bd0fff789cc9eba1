package pipeline

import (
	"encoding/binary"
	"encoding/json"
)

// Framed record encoding — the value format caches store under a record
// key. A framed entry carries the record twice:
//
//	"sfsrec1\x00" | uint32 len(json) | json | binary fields
//
// so a warm hit decodes the flat binary fields (length-prefixed slices,
// no parser) and writes the embedded canonical JSON to the JSONL file
// verbatim — neither a JSON parse nor a re-marshal. The decoded record
// is what a hit hands out: to Stats.Rejected, observers, the sfs-serve
// live stream and the caller of RunJSONL. The embedded JSON is the
// hit's JSONL line once it passes the framing guard (usableLine). The
// two agree because both come from one encodeRecord call, and a
// PackStore hands back only CRC-checked frames; a damaged binary part
// (decodeRecord's bounds checks fail) degrades to parsing the embedded
// JSON. A value without the tag — a v1 bare-JSON entry among them — is a
// miss.

// recMagic tags a framed record entry.
const recMagic = "sfsrec1\x00"

// encodeRecord appends the framed encoding of rec and its canonical JSON
// line (exactly rec.AppendJSON's bytes) to buf. The pipeline frames into
// a worker's reused buffer, which Store.Put copies.
func encodeRecord(buf []byte, rec Record, line []byte) []byte {
	buf = append(buf, recMagic...)
	buf = appendBytes32(buf, line)
	buf = appendString32(buf, rec.Name)
	var flags byte
	if rec.Accepted {
		flags |= 1
	}
	if rec.CapHit {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.Steps))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.MaxStates))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.TauExpansions))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.SumStates))
	buf = appendString32(buf, rec.Checked)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Errors)))
	for _, e := range rec.Errors {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Line))
		buf = appendString32(buf, e.Observed)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Allowed)))
		for _, a := range e.Allowed {
			buf = appendString32(buf, a)
		}
	}
	return buf
}

func appendBytes32(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendString32(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// decodeRecord decodes a framed record value, returning the record and
// its JSON line. Unframed or unparsable data is a miss (ok false) — the
// writer will overwrite it — never an error.
func decodeRecord(data []byte, key string) (Record, []byte, bool) {
	if len(data) < len(recMagic) || string(data[:len(recMagic)]) != recMagic {
		return Record{}, nil, false
	}
	d := decoder{buf: data[len(recMagic):]}
	line := d.bytes32()
	rec := Record{Key: key, Name: string(d.bytes32())}
	flags := d.byte()
	rec.Accepted = flags&1 != 0
	rec.CapHit = flags&2 != 0
	rec.Steps = int(d.uint32())
	rec.MaxStates = int(d.uint32())
	rec.TauExpansions = int(d.uint32())
	rec.SumStates = int(d.uint32())
	rec.Checked = string(d.bytes32())
	// Counts come from stored bytes: one that the rest of the entry
	// cannot hold (an error takes at least 12 bytes, an allowed string 4)
	// is damage, and must fail before it sizes an allocation.
	if n := d.count(12); n > 0 && !d.failed {
		rec.Errors = make([]RecordError, 0, n)
		for i := uint32(0); i < n && !d.failed; i++ {
			e := RecordError{Line: int(d.uint32()), Observed: string(d.bytes32())}
			if m := d.count(4); m > 0 && !d.failed {
				e.Allowed = make([]string, 0, m)
				for j := uint32(0); j < m && !d.failed; j++ {
					e.Allowed = append(e.Allowed, string(d.bytes32()))
				}
			}
			rec.Errors = append(rec.Errors, e)
		}
	}
	if d.failed || len(d.buf) != 0 {
		// Damaged binary part: the embedded JSON (if intact) is still
		// authoritative.
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return Record{}, nil, false
		}
		rec.Key = key
		return rec, line, true
	}
	return rec, line, true
}

// decoder is a bounds-checked cursor over a framed entry; any overrun
// sets failed instead of panicking (a PackStore hands us CRC-verified
// bytes, but a CRC only proves the bytes are the ones written, and a
// store injected with WithStore may hold anything).
type decoder struct {
	buf    []byte
	failed bool
}

func (d *decoder) byte() byte {
	if d.failed || len(d.buf) < 1 {
		d.failed = true
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uint32() uint32 {
	if d.failed || len(d.buf) < 4 {
		d.failed = true
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// count reads an element count and fails unless the remaining bytes can
// hold that many elements of at least size bytes each.
func (d *decoder) count(size int) uint32 {
	n := d.uint32()
	if d.failed || uint64(n)*uint64(size) > uint64(len(d.buf)) {
		d.failed = true
		return 0
	}
	return n
}

func (d *decoder) bytes32() []byte {
	n := d.uint32()
	if d.failed || uint32(len(d.buf)) < n {
		d.failed = true
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}
