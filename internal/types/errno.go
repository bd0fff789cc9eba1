package types

import (
	"fmt"
	"math/bits"
)

// Errno is an abstract POSIX error number. The model works with symbolic
// errors, not platform-specific integer values, because the oracle compares
// names observed in traces, not raw integers.
type Errno int

// Error numbers used by the specification. The list covers every error the
// file-system portion of POSIX (and the Linux/OS X/FreeBSD variants) can
// produce for the calls in scope.
const (
	EOK Errno = iota // not an error; internal sentinel, never returned
	EPERM
	ENOENT
	EINTR
	EIO
	EBADF
	EACCES
	EBUSY
	EEXIST
	EXDEV
	ENOTDIR
	EISDIR
	EINVAL
	ENFILE
	EMFILE
	ETXTBSY
	EFBIG
	ENOSPC
	ESPIPE
	EROFS
	EMLINK
	EPIPE
	ENAMETOOLONG
	ENOTEMPTY
	ELOOP
	EOVERFLOW
	EOPNOTSUPP
	ERANGE
	EDQUOT
	ENOSYS
)

var errnoNames = map[Errno]string{
	EOK:          "RV_none",
	EPERM:        "EPERM",
	ENOENT:       "ENOENT",
	EINTR:        "EINTR",
	EIO:          "EIO",
	EBADF:        "EBADF",
	EACCES:       "EACCES",
	EBUSY:        "EBUSY",
	EEXIST:       "EEXIST",
	EXDEV:        "EXDEV",
	ENOTDIR:      "ENOTDIR",
	EISDIR:       "EISDIR",
	EINVAL:       "EINVAL",
	ENFILE:       "ENFILE",
	EMFILE:       "EMFILE",
	ETXTBSY:      "ETXTBSY",
	EFBIG:        "EFBIG",
	ENOSPC:       "ENOSPC",
	ESPIPE:       "ESPIPE",
	EROFS:        "EROFS",
	EMLINK:       "EMLINK",
	EPIPE:        "EPIPE",
	ENAMETOOLONG: "ENAMETOOLONG",
	ENOTEMPTY:    "ENOTEMPTY",
	ELOOP:        "ELOOP",
	EOVERFLOW:    "EOVERFLOW",
	EOPNOTSUPP:   "EOPNOTSUPP",
	ERANGE:       "ERANGE",
	EDQUOT:       "EDQUOT",
	ENOSYS:       "ENOSYS",
}

var errnoByName = func() map[string]Errno {
	m := make(map[string]Errno, len(errnoNames))
	for e, n := range errnoNames {
		m[n] = e
	}
	return m
}()

// String returns the conventional upper-case POSIX name of the error.
func (e Errno) String() string {
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("E?%d", int(e))
}

// ParseErrno maps a POSIX error name (e.g. "ENOENT") to its Errno. The
// second result reports whether the name was recognised.
func ParseErrno(name string) (Errno, bool) {
	e, ok := errnoByName[name]
	if !ok || e == EOK {
		return 0, false
	}
	return e, true
}

// ErrnoSet is a set of error numbers, used by the specification combinators
// to accumulate the envelope of allowed errors for a call (§4 of the paper).
// It is a bitset — bit e holds Errno e — so building, copying and uniting
// sets never allocates; every Errno is below 64.
type ErrnoSet uint64

// errnoBit is e's bit. An errno outside [0, 64) is a programming error.
func errnoBit(e Errno) ErrnoSet {
	if e < 0 || e >= 64 {
		panic(fmt.Sprintf("types: errno %d outside an ErrnoSet", int(e)))
	}
	return 1 << uint(e)
}

// NewErrnoSet builds a set from the given errors.
func NewErrnoSet(es ...Errno) ErrnoSet {
	var s ErrnoSet
	s.Add(es...)
	return s
}

// Add inserts the given errors into the set.
func (s *ErrnoSet) Add(es ...Errno) {
	for _, e := range es {
		*s |= errnoBit(e)
	}
}

// Has reports whether e is in the set.
func (s ErrnoSet) Has(e Errno) bool { return e >= 0 && e < 64 && s&(1<<uint(e)) != 0 }

// Union adds every element of other to s and returns s.
func (s *ErrnoSet) Union(other ErrnoSet) ErrnoSet {
	*s |= other
	return *s
}

// Len reports the number of errors in the set.
func (s ErrnoSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Pop returns the set's smallest error and the set without it; s must not
// be empty. Popping until the set is empty visits the errors in ascending
// numeric order — Sorted's order — without allocating:
//
//	for rest := s; rest != 0; {
//		var e Errno
//		e, rest = rest.Pop()
//		...
//	}
func (s ErrnoSet) Pop() (Errno, ErrnoSet) {
	return Errno(bits.TrailingZeros64(uint64(s))), s & (s - 1)
}

// Sorted returns the elements in ascending numeric order (which matches the
// declaration order above and gives deterministic diagnostics).
func (s ErrnoSet) Sorted() []Errno {
	out := make([]Errno, 0, s.Len())
	for rest := s; rest != 0; {
		var e Errno
		e, rest = rest.Pop()
		out = append(out, e)
	}
	return out
}
