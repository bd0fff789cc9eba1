package types

import (
	"bytes"
	"strconv"
)

// RetValue is the Go encoding of error_or_value ret_value: what a libc call
// returns to the process. Like Command, it is a sealed interface standing
// in for a Lem variant type.
type RetValue interface {
	// Append renders the value in trace syntax (Fig 3) onto b and returns
	// the extended slice.
	Append(b []byte) []byte
	// String is Append's rendering as a string.
	String() string
	// Equal reports whether two return values are the same observation.
	Equal(RetValue) bool
	isRetValue()
}

// RvNone is a successful call with no interesting value ("RV_none").
type RvNone struct{}

// RvNum is a successful call returning an integer (byte counts, offsets).
type RvNum struct{ N int64 }

// RvBytes is a successful read returning data.
type RvBytes struct{ Data []byte }

// RvStats is a successful stat/lstat.
type RvStats struct{ Stats Stats }

// RvFD is a successful open returning a file descriptor.
type RvFD struct{ FD FD }

// RvDH is a successful opendir returning a directory handle.
type RvDH struct{ DH DH }

// RvDirent is a successful readdir returning one name; End marks
// end-of-directory (readdir returned NULL).
type RvDirent struct {
	Name string
	End  bool
}

// RvErr is an error return.
type RvErr struct{ Err Errno }

// RvPerm is the previous mask returned by umask.
type RvPerm struct{ Perm Perm }

func (RvNone) isRetValue()   {}
func (RvNum) isRetValue()    {}
func (RvBytes) isRetValue()  {}
func (RvStats) isRetValue()  {}
func (RvFD) isRetValue()     {}
func (RvDH) isRetValue()     {}
func (RvDirent) isRetValue() {}
func (RvErr) isRetValue()    {}
func (RvPerm) isRetValue()   {}

func (RvNone) Append(b []byte) []byte { return append(b, "RV_none"...) }
func (v RvNum) Append(b []byte) []byte {
	return append(strconv.AppendInt(append(b, "RV_num("...), v.N, 10), ')')
}
func (v RvBytes) Append(b []byte) []byte {
	return append(appendQuote(append(b, "RV_bytes("...), string(v.Data)), ')')
}
func (v RvStats) Append(b []byte) []byte { return v.Stats.Append(append(b, "RV_stats "...)) }
func (v RvFD) Append(b []byte) []byte {
	return append(strconv.AppendInt(append(b, "RV_file_descriptor(FD "...), int64(v.FD), 10), ')')
}
func (v RvDH) Append(b []byte) []byte {
	return append(strconv.AppendInt(append(b, "RV_dir_handle(DH "...), int64(v.DH), 10), ')')
}
func (v RvDirent) Append(b []byte) []byte {
	if v.End {
		return append(b, "RV_readdir_end"...)
	}
	return append(appendQuote(append(b, "RV_readdir("...), v.Name), ')')
}
func (v RvErr) Append(b []byte) []byte  { return append(b, v.Err.String()...) }
func (v RvPerm) Append(b []byte) []byte { return append(v.Perm.Append(append(b, "RV_perm("...)), ')') }

func (v RvNone) String() string   { return string(v.Append(nil)) }
func (v RvNum) String() string    { return string(v.Append(nil)) }
func (v RvBytes) String() string  { return string(v.Append(nil)) }
func (v RvStats) String() string  { return string(v.Append(nil)) }
func (v RvFD) String() string     { return string(v.Append(nil)) }
func (v RvDH) String() string     { return string(v.Append(nil)) }
func (v RvDirent) String() string { return string(v.Append(nil)) }
func (v RvErr) String() string    { return string(v.Append(nil)) }
func (v RvPerm) String() string   { return string(v.Append(nil)) }

// Equal implementations compare observations structurally.
func (RvNone) Equal(o RetValue) bool { _, ok := o.(RvNone); return ok }
func (v RvNum) Equal(o RetValue) bool {
	w, ok := o.(RvNum)
	return ok && v.N == w.N
}
func (v RvBytes) Equal(o RetValue) bool {
	w, ok := o.(RvBytes)
	return ok && bytes.Equal(v.Data, w.Data)
}
func (v RvStats) Equal(o RetValue) bool {
	w, ok := o.(RvStats)
	return ok && v.Stats == w.Stats
}
func (v RvFD) Equal(o RetValue) bool {
	w, ok := o.(RvFD)
	return ok && v.FD == w.FD
}
func (v RvDH) Equal(o RetValue) bool {
	w, ok := o.(RvDH)
	return ok && v.DH == w.DH
}
func (v RvDirent) Equal(o RetValue) bool {
	w, ok := o.(RvDirent)
	return ok && v.End == w.End && v.Name == w.Name
}
func (v RvErr) Equal(o RetValue) bool {
	w, ok := o.(RvErr)
	return ok && v.Err == w.Err
}
func (v RvPerm) Equal(o RetValue) bool {
	w, ok := o.(RvPerm)
	return ok && v.Perm == w.Perm
}

// IsError reports whether rv is an error return.
func IsError(rv RetValue) bool {
	_, ok := rv.(RvErr)
	return ok
}
