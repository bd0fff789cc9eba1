package types

import "strings"

// OpenFlags is the bitfield of flags accepted by open(2). The values are
// abstract (they do not match any particular kernel's encoding); traces use
// the symbolic names.
type OpenFlags uint32

const (
	ORdonly    OpenFlags = 0         // O_RDONLY is the absence of O_WRONLY/O_RDWR
	OWronly    OpenFlags = 1 << iota // O_WRONLY
	ORdwr                            // O_RDWR
	OCreat                           // O_CREAT
	OExcl                            // O_EXCL
	OTrunc                           // O_TRUNC
	OAppend                          // O_APPEND
	ODirectory                       // O_DIRECTORY
	ONofollow                        // O_NOFOLLOW
	OCloexec                         // O_CLOEXEC
	ONonblock                        // O_NONBLOCK
	OSync                            // O_SYNC
	ONoctty                          // O_NOCTTY
)

// openFlagNames maps each flag to its trace-syntax name, sorted by name:
// the order a rendered flag set lists them in.
var openFlagNames = []struct {
	f OpenFlags
	n string
}{
	{OAppend, "O_APPEND"},
	{OCloexec, "O_CLOEXEC"},
	{OCreat, "O_CREAT"},
	{ODirectory, "O_DIRECTORY"},
	{OExcl, "O_EXCL"},
	{ONoctty, "O_NOCTTY"},
	{ONofollow, "O_NOFOLLOW"},
	{ONonblock, "O_NONBLOCK"},
	{ORdonly, "O_RDONLY"},
	{ORdwr, "O_RDWR"},
	{OSync, "O_SYNC"},
	{OTrunc, "O_TRUNC"},
	{OWronly, "O_WRONLY"},
}

// Has reports whether all bits of g are set in f.
func (f OpenFlags) Has(g OpenFlags) bool { return f&g == g }

// AccessMode extracts the access-mode portion (O_RDONLY, O_WRONLY or
// O_RDWR). A flag word with both O_WRONLY and O_RDWR set is invalid; the
// spec treats it as O_RDWR on Linux and as EINVAL on POSIX.
func (f OpenFlags) AccessMode() OpenFlags { return f & (OWronly | ORdwr) }

// Readable reports whether the access mode permits reading.
func (f OpenFlags) Readable() bool { return f.AccessMode() == ORdonly || f.Has(ORdwr) }

// Writable reports whether the access mode permits writing.
func (f OpenFlags) Writable() bool { return f.Has(OWronly) || f.Has(ORdwr) }

// Append renders the flag set in trace syntax onto b: "[O_CREAT;O_WRONLY]".
func (f OpenFlags) Append(b []byte) []byte {
	b = append(b, '[')
	first := true
	for _, fn := range openFlagNames {
		// O_RDONLY is the absence of a write access mode, not a bit.
		if fn.f == ORdonly && f.AccessMode() != ORdonly || !f.Has(fn.f) {
			continue
		}
		if !first {
			b = append(b, ';')
		}
		first = false
		b = append(b, fn.n...)
	}
	return append(b, ']')
}

// String is Append's rendering as a string.
func (f OpenFlags) String() string { return string(f.Append(nil)) }

// ParseOpenFlags parses trace syntax such as "[O_CREAT;O_WRONLY]".
func ParseOpenFlags(s string) (OpenFlags, bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, false
	}
	s = s[1 : len(s)-1]
	var f OpenFlags
	if s == "" {
		return f, true
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		found := false
		for _, fn := range openFlagNames {
			if fn.n == part {
				f |= fn.f
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return f, true
}

// SeekWhence is the third argument of lseek.
type SeekWhence int

const (
	SeekSet SeekWhence = iota // SEEK_SET
	SeekCur                   // SEEK_CUR
	SeekEnd                   // SEEK_END
)

// Append renders the whence in trace syntax onto b.
func (w SeekWhence) Append(b []byte) []byte {
	switch w {
	case SeekSet:
		return append(b, "SEEK_SET"...)
	case SeekCur:
		return append(b, "SEEK_CUR"...)
	case SeekEnd:
		return append(b, "SEEK_END"...)
	}
	return append(b, "SEEK_?"...)
}

// String is Append's rendering as a string.
func (w SeekWhence) String() string { return string(w.Append(nil)) }

// ParseSeekWhence parses trace syntax for the lseek whence argument.
func ParseSeekWhence(s string) (SeekWhence, bool) {
	switch s {
	case "SEEK_SET":
		return SeekSet, true
	case "SEEK_CUR":
		return SeekCur, true
	case "SEEK_END":
		return SeekEnd, true
	}
	return 0, false
}
