package osspec

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/state"
	"repro/internal/types"
)

// Pending describes the set of return values a process in RsReturning may
// observe, together with any return-value-dependent state update. This is
// the "continuation" refinement the paper describes for large reads and
// writes (§3): rather than enumerating one next state per byte count, the
// state carries a pattern abstracted on the return value; matching the
// observed value finalises a single next state.
type Pending interface {
	// Match reports whether rv is an allowed return.
	Match(s *OsState, rv types.RetValue) bool
	// Finalize applies the rv-dependent effects to s (offset advances,
	// readdir bookkeeping). Called only after a successful Match on a
	// clone of the state.
	Finalize(s *OsState, rv types.RetValue)
	// AppendDescribe renders the allowed values onto b and returns the
	// extended slice: the text diagnostics show ("allowed are only: ...",
	// Fig 4) and the bytes state identity hashes and compares.
	AppendDescribe(b []byte) []byte
	// Describe is AppendDescribe's rendering as a string.
	Describe() string
}

// PendingExact allows exactly one return value with no further effects
// (those were already applied when the candidate state was built).
type PendingExact struct {
	Rv types.RetValue
	// h caches the description hash pendingHash would compute; zero
	// means not cached. succExact fills it (exactPending), so state
	// hashing never re-renders the value (other processes' pending stat
	// results are re-hashed in every successor of a concurrent closure).
	h uint64
}

// Match implements Pending.
func (p PendingExact) Match(_ *OsState, rv types.RetValue) bool { return p.Rv.Equal(rv) }

// Finalize implements Pending.
func (p PendingExact) Finalize(*OsState, types.RetValue) {}

// AppendDescribe implements Pending.
func (p PendingExact) AppendDescribe(b []byte) []byte { return p.Rv.Append(b) }

// Describe implements Pending.
func (p PendingExact) Describe() string { return string(p.AppendDescribe(nil)) }

// PendingAny allows any return value: the POSIX special states for
// undefined / unspecified / implementation-defined behaviour (§1.1). The
// state is conservatively left unchanged.
type PendingAny struct{ Why string }

// Match implements Pending.
func (PendingAny) Match(*OsState, types.RetValue) bool { return true }

// Finalize implements Pending.
func (PendingAny) Finalize(*OsState, types.RetValue) {}

// AppendDescribe implements Pending.
func (p PendingAny) AppendDescribe(b []byte) []byte {
	return append(append(append(b, "anything ("...), p.Why...), ')')
}

// Describe implements Pending.
func (p PendingAny) Describe() string { return string(p.AppendDescribe(nil)) }

// PendingReadPrefix allows RV_bytes(b) for any prefix b of Data — the
// paper's short-read looseness — advancing the description offset by the
// observed length when Seq is set (read vs pread).
type PendingReadPrefix struct {
	Pid  types.Pid
	Fid  FidRef
	Data []byte
	Seq  bool // advance the offset (read, not pread)
}

// Match implements Pending. A zero-length read of a non-empty range is not
// allowed (it would signal EOF); zero is allowed when Data is empty.
func (p PendingReadPrefix) Match(_ *OsState, rv types.RetValue) bool {
	b, ok := rv.(types.RvBytes)
	if !ok {
		return false
	}
	if len(b.Data) > len(p.Data) {
		return false
	}
	if len(b.Data) == 0 {
		return len(p.Data) == 0
	}
	return bytes.Equal(b.Data, p.Data[:len(b.Data)])
}

// Finalize implements Pending.
func (p PendingReadPrefix) Finalize(s *OsState, rv types.RetValue) {
	b := rv.(types.RvBytes)
	if p.Seq {
		if fid := s.mutFid(p.Fid); fid != nil {
			fid.Offset += int64(len(b.Data))
		}
	}
}

// AppendDescribe implements Pending.
func (p PendingReadPrefix) AppendDescribe(b []byte) []byte {
	b = strconv.AppendQuote(append(b, "RV_bytes(any non-empty prefix of "...), string(p.Data))
	return append(b, ')')
}

// Describe implements Pending.
func (p PendingReadPrefix) Describe() string { return string(p.AppendDescribe(nil)) }

// PendingWriteUpTo allows RV_num(n) for 1 ≤ n ≤ len(Data) (or exactly 0 for
// empty writes) — the short-write looseness — writing the n-byte prefix at
// the chosen position and advancing the offset for sequential writes.
type PendingWriteUpTo struct {
	Pid    types.Pid
	Fid    FidRef
	Data   []byte
	At     int64 // write position; -1 = append to end of file
	Seq    bool  // advance the offset (write, not pwrite)
	SetOff bool  // for append mode, reposition offset at new EOF
}

// Match implements Pending.
func (p PendingWriteUpTo) Match(_ *OsState, rv types.RetValue) bool {
	n, ok := rv.(types.RvNum)
	if !ok {
		return false
	}
	if len(p.Data) == 0 {
		return n.N == 0
	}
	return n.N >= 1 && n.N <= int64(len(p.Data))
}

// Finalize implements Pending.
func (p PendingWriteUpTo) Finalize(s *OsState, rv types.RetValue) {
	applyWriteEffect(s, p.Fid, p.Data, rv.(types.RvNum).N, p.At, p.Seq)
}

// applyWriteEffect writes the first n bytes of data at position at (-1 =
// append to the current EOF) through the open description fid, advancing
// its offset for sequential writes. Shared by the complete-write τ effect
// and the short-write return-time continuation.
func applyWriteEffect(s *OsState, fidRef FidRef, data []byte, n, at int64, seq bool) {
	if n == 0 {
		return // a zero-length write has no effect (it does not extend)
	}
	fid := s.fids[fidRef]
	if fid == nil {
		return
	}
	f := s.H.MutFile(fid.File)
	if f == nil {
		return
	}
	if at < 0 {
		at = int64(len(f.Bytes))
	}
	end := at + n
	if int64(len(f.Bytes)) < end {
		f.Bytes = append(f.Bytes, make([]byte, end-int64(len(f.Bytes)))...)
	}
	copy(f.Bytes[at:end], data[:n])
	if seq {
		s.mutFid(fidRef).Offset = end
	}
	if fid.Sync {
		// O_SYNC: the write is durable before the call returns. Note the
		// content effect above must land first so the flushed image holds
		// it; in the global-barrier model this also flushes any older
		// pending effects (see persist.go).
		s.persistNote()
		s.flushPending()
	}
}

// AppendDescribe implements Pending.
func (p PendingWriteUpTo) AppendDescribe(b []byte) []byte {
	if len(p.Data) == 0 {
		return append(b, "RV_num(0)"...)
	}
	return append(strconv.AppendInt(append(b, "RV_num(1.."...), int64(len(p.Data)), 10), ')')
}

// Describe implements Pending.
func (p PendingWriteUpTo) Describe() string { return string(p.AppendDescribe(nil)) }

// PendingReaddir allows RV_readdir(n) for any n in the handle's must/may
// sets, or RV_readdir_end exactly when the must set is empty (§3,
// "Directory listing nondeterminism by hand-crafted specification"). The
// handle is refreshed against the directory's current contents on each
// call, folding concurrent additions/removals into the may set.
type PendingReaddir struct {
	Pid types.Pid
	DH  types.DH
}

func (p PendingReaddir) handle(s *OsState) *DirHandleState {
	proc := s.procs.get(p.Pid)
	if proc == nil {
		return nil
	}
	return proc.Dhs[p.DH]
}

// Match implements Pending.
func (p PendingReaddir) Match(s *OsState, rv types.RetValue) bool {
	h := p.handle(s)
	if h == nil {
		return false
	}
	must, may := refreshedSets(s, h)
	switch v := rv.(type) {
	case types.RvDirent:
		if v.End {
			return len(must) == 0
		}
		return must[v.Name] || may[v.Name]
	}
	return false
}

// Finalize implements Pending.
func (p PendingReaddir) Finalize(s *OsState, rv types.RetValue) {
	h := s.mutDh(p.Pid, p.DH)
	if h == nil {
		return
	}
	must, may := refreshedSets(s, h)
	h.Must, h.May = must, may
	h.LastSeen = currentEntries(s, h.Dir)
	v := rv.(types.RvDirent)
	if v.End {
		return
	}
	h.Returned[v.Name] = true
	delete(h.Must, v.Name)
	delete(h.May, v.Name)
}

// AppendDescribe implements Pending.
func (p PendingReaddir) AppendDescribe(b []byte) []byte {
	b = strconv.AppendInt(append(b, "RV_readdir(entry of DH "...), int64(p.DH), 10)
	return append(b, ") or RV_readdir_end"...)
}

// Describe implements Pending.
func (p PendingReaddir) Describe() string { return string(p.AppendDescribe(nil)) }

// DescribeAgainst renders the concrete allowed entries for diagnostics.
func (p PendingReaddir) DescribeAgainst(s *OsState) string {
	h := p.handle(s)
	if h == nil {
		return p.Describe()
	}
	must, may := refreshedSets(s, h)
	var names []string
	for n := range must {
		names = append(names, fmt.Sprintf("%q", n))
	}
	for n := range may {
		names = append(names, fmt.Sprintf("%q?", n))
	}
	sort.Strings(names)
	opts := "RV_readdir{" + strings.Join(names, ", ") + "}"
	if len(must) == 0 {
		opts += " or RV_readdir_end"
	}
	return opts
}

// currentEntries snapshots the names now present in dir.
func currentEntries(s *OsState, dir state.DirRef) map[string]bool {
	m := make(map[string]bool)
	for _, n := range s.H.EntryNames(dir) {
		m[n] = true
	}
	return m
}

// refreshedSets folds directory changes since LastSeen into fresh must/may
// sets, per the paper's semantics: unreturned entries that disappeared move
// from must to may (they may still be returned); new entries appear in may;
// entries stable since the snapshot stay in must.
func refreshedSets(s *OsState, h *DirHandleState) (must, may map[string]bool) {
	cur := currentEntries(s, h.Dir)
	must = cloneSet(h.Must)
	may = cloneSet(h.May)
	for n := range h.LastSeen {
		if !cur[n] {
			if must[n] {
				delete(must, n)
				may[n] = true
			}
		}
	}
	for n := range cur {
		if !h.LastSeen[n] && !must[n] && !h.Returned[n] {
			may[n] = true
		}
	}
	// An entry that was returned and later re-added may be returned again.
	for n := range cur {
		if h.Returned[n] && !h.LastSeen[n] {
			may[n] = true
		}
	}
	return must, may
}
