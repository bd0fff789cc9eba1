package osspec

// ProcHashes returns s's process-table hash as Hash maintains it
// (incrementally, from per-process memos) and as a full recompute that
// trusts no memo.
func ProcHashes(s *OsState) (incremental, full uint64) {
	s.Hash()
	for _, e := range s.procs {
		full ^= s.procContribOf(e.pid, e.p)
	}
	return s.hv, full
}
