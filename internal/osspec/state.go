package osspec

import (
	"fmt"
	"sort"

	"repro/internal/state"
	"repro/internal/types"
)

// FidRef identifies an open file description (ty_fid); several descriptors
// (across processes) may share one description, e.g. after fork — the model
// keeps the indirection even though the test harness never shares them.
type FidRef int

// cowTok is the OS layer's ownership token, mirroring the heap's: an
// object is mutable in place only while its owner equals the state's
// current token.
type cowTok struct{ _ byte }

// FidState is the state of an open file description (fid_state). Mutate
// only through OsState.mutFid.
type FidState struct {
	IsDir    bool
	File     state.FileRef
	Dir      state.DirRef
	Offset   int64
	Append   bool
	Readable bool
	Writable bool
	Sync     bool // O_SYNC: writes through this description self-flush
	Refs     int

	owner *cowTok
}

// DirHandleState models an open directory stream with the paper's must/may
// machinery (§3, "Directory listing nondeterminism"): Must holds entries
// that a complete sequence of readdir calls must still return; May holds
// entries that may or may not be returned (added or removed since the
// handle was opened). LastSeen is the directory contents at the previous
// readdir, used to fold concurrent modifications into Must/May.
//
// Mutate only through OsState.mutDh. Must/May/LastSeen are replaced
// wholesale by their writers (opendir, rewinddir, readdir's Finalize), so a
// copy-on-write handle shares them; Returned is updated in place and is
// cloned when the handle is copied.
type DirHandleState struct {
	Dir      state.DirRef
	Must     map[string]bool
	May      map[string]bool
	Returned map[string]bool
	LastSeen map[string]bool

	owner *cowTok
}

// RunKind is a process's run state.
type RunKind int

// Run states: running (may issue a call), calling (call issued, not yet
// processed — pre-τ), returning (processed, awaiting the return label).
const (
	RsRunning RunKind = iota
	RsCalling
	RsReturning
)

// ProcState is per_process_state: everything the OS tracks per process.
// Mutate only through OsState.mutProc / mutFds / mutDhs / mutDh.
type ProcState struct {
	Cwd      state.DirRef
	CwdValid bool
	Umask    types.Perm
	Euid     types.Uid
	Egid     types.Gid
	Fds      map[types.FD]FidRef
	Dhs      map[types.DH]*DirHandleState
	NextFD   types.FD
	NextDH   types.DH

	Run        RunKind
	PendingCmd types.Command // valid in RsCalling
	PendingRet Pending       // valid in RsReturning

	owner   *cowTok
	ownsFds bool
	ownsDhs bool

	// hv memoises the process's share of the state hash (procContrib)
	// while that share cannot depend on the open-file table: only with
	// no descriptors. It is written only while the process is private to
	// the state being built, and cleared whenever mutProc hands it out.
	hv   uint64
	hvOK bool
}

// procEntry is one row of the process table.
type procEntry struct {
	pid types.Pid
	p   *ProcState
}

// procTable is the process table, sorted by pid. Scripts run a handful
// of processes, so lookups scan linearly and copy-on-write copies the
// slice.
type procTable []procEntry

// lookup returns pid's row index, or where its row would be inserted.
func (t procTable) lookup(pid types.Pid) (int, bool) {
	for i, e := range t {
		if e.pid >= pid {
			return i, e.pid == pid
		}
	}
	return len(t), false
}

// get returns pid's process, nil if absent.
func (t procTable) get(pid types.Pid) *ProcState {
	if i, ok := t.lookup(pid); ok {
		return t[i].p
	}
	return nil
}

// OsState is ty_os_state: one abstract model state of the whole system.
// The process, open-file and group tables are copy-on-write; read them
// freely, write through the mut* accessors.
type OsState struct {
	H       *state.Heap
	fids    map[FidRef]*FidState
	NextFid FidRef
	procs   procTable
	// groups maps gid → set of member uids (oss_group_table).
	groups map[types.Gid]map[types.Uid]bool
	Spec   types.Spec

	// Persistence layer (Spec.Crash only; both stay nil/empty otherwise).
	// durable is the last-synced file-system image; pend holds one frozen
	// heap snapshot per unsynced durable effect, in the order the effects
	// landed. Crash states are exactly durable plus the pend prefixes —
	// see CrashStates. Snapshots are O(1) COW clones, so the log costs a
	// header per effect, not a tree copy.
	durable *state.Heap
	pend    []*state.Heap

	tok        *cowTok
	ownsFids   bool
	ownsProcs  bool
	ownsGroups bool
	ownsPend   bool
	frozen     bool

	// hv memoises the non-heap part of Hash (procs, fds, dir handles),
	// the XOR of one contribution per process. A change to one process
	// XORs its old contribution out and sets its bit in hvDirty, and
	// Hash folds the new one in; fid-table and process-table shape
	// changes invalidate the memo instead (hvOK false).
	hv      uint64
	hvDirty uint64
	hvOK    bool
}

// InitialPid is the process every script starts with.
const InitialPid types.Pid = 1

// NewOsState builds the model's initial state: an empty file system and a
// single process whose credentials follow the spec's RootUser flag.
func NewOsState(spec types.Spec) *OsState {
	s := &OsState{
		H:          state.NewHeap(),
		fids:       make(map[FidRef]*FidState),
		NextFid:    1,
		groups:     make(map[types.Gid]map[types.Uid]bool),
		Spec:       spec,
		tok:        &cowTok{},
		ownsFids:   true,
		ownsProcs:  true,
		ownsGroups: true,
		ownsPend:   true,
	}
	uid, gid := types.RootUid, types.RootGid
	if !spec.RootUser {
		uid, gid = 1000, 1000
	}
	s.addProcess(InitialPid, uid, gid)
	if spec.Crash {
		// The empty initial file system is durable by definition.
		s.durable = snapshotHeap(s.H)
	}
	return s
}

func (s *OsState) addProcess(pid types.Pid, uid types.Uid, gid types.Gid) {
	s.setProc(pid, &ProcState{
		Cwd:      s.H.Root,
		CwdValid: true,
		Umask:    0o022,
		Euid:     uid,
		Egid:     gid,
		Fds:      make(map[types.FD]FidRef),
		Dhs:      make(map[types.DH]*DirHandleState),
		NextFD:   3, // 0-2 are the std streams, outside the model's scope
		NextDH:   1,
		Run:      RsRunning,
		owner:    s.ensureTok(),
		ownsFds:  true,
		ownsDhs:  true,
	})
}

// Proc returns the per-process state for pid (nil if absent), read-only.
func (s *OsState) Proc(pid types.Pid) *ProcState { return s.procs.get(pid) }

// Fid returns the open-file description for ref (nil if absent), read-only.
func (s *OsState) Fid(ref FidRef) *FidState { return s.fids[ref] }

// NumFids reports the number of open file descriptions.
func (s *OsState) NumFids() int { return len(s.fids) }

// Pids returns every live pid in ascending order.
func (s *OsState) Pids() []types.Pid {
	out := make([]types.Pid, len(s.procs))
	for i, e := range s.procs {
		out[i] = e.pid
	}
	return out
}

// Clone shares the state copy-on-write: O(1), no table or object is copied
// until one side writes. The source is frozen first, so cloning a frozen
// state is a pure read — which is what lets traces checked on several
// goroutines share one initial state. The clone and its
// heap header share one allocation (osClone).
func (s *OsState) Clone() *OsState {
	s.Freeze()
	b := new(osClone)
	s.H.CloneInto(&b.h)
	b.s = OsState{
		H:       &b.h,
		fids:    s.fids,
		NextFid: s.NextFid,
		procs:   s.procs,
		groups:  s.groups,
		Spec:    s.Spec,
		durable: s.durable,
		pend:    s.pend,
		hv:      s.hv,
		hvDirty: s.hvDirty,
		hvOK:    s.hvOK,
	}
	return &b.s
}

// osClone is a cloned state laid out with its heap header, so a clone is
// one allocation. The block lives as long as either half is referenced;
// a state whose H is later replaced (crash states) keeps the unused
// header alive with it.
type osClone struct {
	s OsState
	h state.Heap
}

// Freeze relinquishes in-place mutation rights (here and in the heap) so
// every future write copies. Idempotent; a frozen state tolerates
// concurrent readers and cloners. It does not compute the hash — call
// Hash() first (still single-threaded) if concurrent readers will need it.
func (s *OsState) Freeze() {
	if s.frozen {
		return
	}
	s.H.Freeze()
	s.tok = nil
	s.ownsFids, s.ownsProcs, s.ownsGroups, s.ownsPend = false, false, false, false
	s.frozen = true
}

// InGroup reports whether uid is a member of gid (supplementary groups).
func (s *OsState) InGroup(uid types.Uid, gid types.Gid) bool {
	m, ok := s.groups[gid]
	return ok && m[uid]
}

// Fingerprint summarises the state for deduplication of the checker's state
// set. Two states with the same fingerprint are behaviourally equivalent
// for our purposes (the summary covers the tree, file contents, fds and
// process run states). The hot path uses Hash + StateEqual instead; this
// string rendering is the readable specification of the same contract, and
// the property tests hold the two implementations to it.
func (s *OsState) Fingerprint() string {
	var b []byte
	b = append(b, s.fsFingerprint()...)
	for _, e := range s.procs {
		pid, p := e.pid, e.p
		b = append(b, fmt.Sprintf("|p%d:%d,%d,%d,cwd%d,%v,run%d", pid, p.Euid, p.Egid, p.Umask, p.Cwd, p.CwdValid, p.Run)...)
		if p.Run == RsReturning && p.PendingRet != nil {
			b = append(b, p.PendingRet.Describe()...)
		}
		fds := make([]int, 0, len(p.Fds))
		for fd := range p.Fds {
			fds = append(fds, int(fd))
		}
		sort.Ints(fds)
		for _, fd := range fds {
			fid := s.fids[p.Fds[types.FD(fd)]]
			b = append(b, fmt.Sprintf(";fd%d=f%d,d%d,o%d", fd, fid.File, fid.Dir, fid.Offset)...)
		}
		dhs := make([]int, 0, len(p.Dhs))
		for dh := range p.Dhs {
			dhs = append(dhs, int(dh))
		}
		sort.Ints(dhs)
		for _, dh := range dhs {
			h := p.Dhs[types.DH(dh)]
			b = append(b, fmt.Sprintf(";dh%d=%d,m%v,y%v,r%v", dh, h.Dir, sortedKeys(h.Must), sortedKeys(h.May), sortedKeys(h.Returned))...)
		}
	}
	if s.durable != nil {
		// Crash mode: the durable image and pending-effect log are part of
		// the state's identity (two states with equal live trees but
		// different persistence histories admit different crash states).
		b = append(b, "|durable:"...)
		b = append(b, heapFingerprint(s.durable)...)
		for i, p := range s.pend {
			b = append(b, fmt.Sprintf("|pend%d:", i)...)
			b = append(b, heapFingerprint(p)...)
		}
	}
	return string(b)
}

func (s *OsState) fsFingerprint() string { return heapFingerprint(s.H) }

func heapFingerprint(h *state.Heap) string {
	var b []byte
	for _, dr := range h.SortedDirRefs() {
		d := h.Dir(dr)
		b = append(b, fmt.Sprintf("|d%d,p%d,%o,%d,%d:", dr, d.Parent, d.Perm, d.Uid, d.Gid)...)
		for _, n := range h.EntryNames(dr) {
			e := d.Entries[n]
			b = append(b, fmt.Sprintf("%s=%d/%d/%d;", n, e.Kind, e.File, e.Dir)...)
		}
	}
	for _, fr := range h.SortedFileRefs() {
		f := h.File(fr)
		b = append(b, fmt.Sprintf("|f%d,%d,%v,%o,%d,%d:%q", fr, f.Nlink, f.IsSymlink, f.Perm, f.Uid, f.Gid, f.Bytes)...)
	}
	return string(b)
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
