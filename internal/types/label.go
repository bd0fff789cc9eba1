package types

import "strconv"

// Label is the Go encoding of os_label (§5): the alphabet of the labelled
// transition system. A trace is a sequence of labels.
type Label interface {
	// Append renders the label in trace syntax onto b and returns the
	// extended slice.
	Append(b []byte) []byte
	// String is Append's rendering as a string.
	String() string
	isLabel()
}

// CallLabel is OS_CALL(pid, cmd): process pid invokes a libc function.
type CallLabel struct {
	Pid Pid
	Cmd Command
}

// ReturnLabel is OS_RETURN(pid, rv): a value is returned to process pid.
type ReturnLabel struct {
	Pid Pid
	Ret RetValue
}

// CreateLabel is OS_CREATE(pid, uid, gid): a new process appears.
type CreateLabel struct {
	Pid Pid
	Uid Uid
	Gid Gid
}

// DestroyLabel is OS_DESTROY(pid): a process disappears.
type DestroyLabel struct{ Pid Pid }

// TauLabel is OS_TAU: an internal transition (the in-kernel processing of a
// pending call).
type TauLabel struct{}

// CrashLabel is the crash-consistency extension: the system loses power and
// is remounted. Keep tells the implementation under test how many pending
// (volatile, unsynced) effects survive the crash, in log order; the oracle
// ignores Keep and admits every durable state consistent with the pending
// log, so a single crash label checks the whole admissible set.
type CrashLabel struct{ Keep int }

func (CallLabel) isLabel()    {}
func (ReturnLabel) isLabel()  {}
func (CreateLabel) isLabel()  {}
func (DestroyLabel) isLabel() {}
func (TauLabel) isLabel()     {}
func (CrashLabel) isLabel()   {}

func (l CallLabel) Append(b []byte) []byte {
	return l.Cmd.Append(append(strconv.AppendInt(b, int64(l.Pid), 10), ": "...))
}
func (l ReturnLabel) Append(b []byte) []byte {
	return l.Ret.Append(append(strconv.AppendInt(b, int64(l.Pid), 10), ": "...))
}
func (l CreateLabel) Append(b []byte) []byte {
	b = strconv.AppendInt(append(b, "create "...), int64(l.Pid), 10)
	return appendUidGid(b, l.Uid, l.Gid)
}
func (l DestroyLabel) Append(b []byte) []byte {
	return strconv.AppendInt(append(b, "destroy "...), int64(l.Pid), 10)
}
func (TauLabel) Append(b []byte) []byte { return append(b, "tau"...) }
func (l CrashLabel) Append(b []byte) []byte {
	return strconv.AppendInt(append(b, "crash "...), int64(l.Keep), 10)
}

func (l CallLabel) String() string    { return string(l.Append(nil)) }
func (l ReturnLabel) String() string  { return string(l.Append(nil)) }
func (l CreateLabel) String() string  { return string(l.Append(nil)) }
func (l DestroyLabel) String() string { return string(l.Append(nil)) }
func (l TauLabel) String() string     { return string(l.Append(nil)) }
func (l CrashLabel) String() string   { return string(l.Append(nil)) }
