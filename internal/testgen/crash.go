package testgen

import (
	"repro/internal/trace"
	"repro/internal/types"
)

// CrashScripts generates the crash-consistency universe: sequential pid-1
// workloads that mutate the tree with and without sync barriers, crash at
// chosen points with chosen survivor counts, and then observe what the
// remounted file system actually kept. The oracle ignores the crash
// label's keep count and admits every ordered pending-log prefix; the
// post-crash observations are what prune the state set down to the
// implementation's actual choice — so a backend that persists something no
// prefix explains deviates.
//
// Crash scripts are sequential-executor only (a crash is a whole-machine
// event with no per-process program order) and require Spec.Crash plus a
// crash-profiled implementation.
func CrashScripts() []*trace.Script {
	var out []*trace.Script
	out = append(out, crashWriteScripts()...)
	out = append(out, crashBarrierScripts()...)
	out = append(out, crashRenameScripts()...)
	out = append(out, crashUnlinkScripts()...)
	out = append(out, crashTreeScripts()...)
	out = append(out, crashOSyncScripts()...)
	out = append(out, crashDoubleScripts()...)
	return out
}

func crash(keep int) trace.Step {
	return trace.Step{Label: types.CrashLabel{Keep: keep}}
}

// crashKeeps are the survivor counts exercised per crash point: nothing
// beyond the durable image, one effect, a few, and "more than pending"
// (clamped to everything — equivalent to crashing after an implicit
// flush of the whole log).
var crashKeeps = []int{0, 1, 2, 8}

// crashObserve is the standard post-crash probe for one file: visibility,
// then content through a fresh descriptor (fd numbering restarts at 3 in
// the remounted initial process).
func crashObserve(path string) []trace.Step {
	return []trace.Step{
		call(1, types.Stat{Path: path}),
		call(1, types.Open{Path: path, Flags: types.ORdonly}),
		call(1, types.Read{FD: 3, Size: 64}),
		call(1, types.Close{FD: 3}),
	}
}

// crashWriteScripts: create + write with no barrier, crash with each keep
// count. Any prefix — no file, empty file, written file — is admissible;
// the observation pins which one the implementation chose.
func crashWriteScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		s := bare(caseName("crash", "write_nosync", itoa(int64(k))),
			call(1, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
			call(1, types.Write{FD: 3, Data: []byte("payload"), Size: 7}),
			call(1, types.Close{FD: 3}),
			crash(k),
		)
		s.Steps = append(s.Steps, crashObserve("/f")...)
		out = append(out, s)

		// Same workload with an fsync barrier before the crash: every
		// admissible state now contains the written file.
		s = bare(caseName("crash", "write_fsync", itoa(int64(k))),
			call(1, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
			call(1, types.Write{FD: 3, Data: []byte("payload"), Size: 7}),
			call(1, types.Fsync{FD: 3}),
			call(1, types.Close{FD: 3}),
			crash(k),
		)
		s.Steps = append(s.Steps, crashObserve("/f")...)
		out = append(out, s)
	}
	return out
}

// crashBarrierScripts: effects on both sides of a sync — the pre-barrier
// directory must survive every crash, the post-barrier one may not.
func crashBarrierScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		s := bare(caseName("crash", "sync_split", itoa(int64(k))),
			call(1, types.Mkdir{Path: "/before", Perm: 0o755}),
			call(1, types.Sync{}),
			call(1, types.Mkdir{Path: "/after", Perm: 0o755}),
			crash(k),
			call(1, types.Stat{Path: "/before"}),
			call(1, types.Stat{Path: "/after"}),
		)
		out = append(out, s)

		// fsync(fd) as the barrier: the model's flush is a global barrier,
		// so syncing one file's descriptor also persists the directory.
		s = bare(caseName("crash", "fsync_split", itoa(int64(k))),
			call(1, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
			call(1, types.Write{FD: 3, Data: []byte("a"), Size: 1}),
			call(1, types.Mkdir{Path: "/before", Perm: 0o755}),
			call(1, types.Fsync{FD: 3}),
			call(1, types.Mkdir{Path: "/after", Perm: 0o755}),
			call(1, types.Close{FD: 3}),
			crash(k),
			call(1, types.Stat{Path: "/before"}),
			call(1, types.Stat{Path: "/after"}),
		)
		s.Steps = append(s.Steps, crashObserve("/f")...)
		out = append(out, s)
	}
	return out
}

// crashRenameScripts: the classic atomic-replace-via-rename pattern, with
// and without the fsync the pattern requires. Observations cover both the
// temporary and final names.
func crashRenameScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		for _, synced := range []bool{false, true} {
			variant := "nosync"
			if synced {
				variant = "fsync"
			}
			s := bare(caseName("crash", "rename_"+variant, itoa(int64(k))),
				call(1, types.Open{Path: "/tmp1", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
				call(1, types.Write{FD: 3, Data: []byte("new"), Size: 3}),
			)
			if synced {
				s.Steps = append(s.Steps, call(1, types.Fsync{FD: 3}))
			}
			s.Steps = append(s.Steps,
				call(1, types.Close{FD: 3}),
				call(1, types.Rename{Src: "/tmp1", Dst: "/dst"}),
			)
			if synced {
				s.Steps = append(s.Steps, call(1, types.Sync{}))
			}
			s.Steps = append(s.Steps, crash(k), call(1, types.Stat{Path: "/tmp1"}))
			s.Steps = append(s.Steps, crashObserve("/dst")...)
			out = append(out, s)
		}
	}
	return out
}

// crashUnlinkScripts: a synced file is unlinked and the machine crashes —
// the file is back in any state where the unlink had not persisted.
func crashUnlinkScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		s := bare(caseName("crash", "unlink", itoa(int64(k))),
			call(1, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
			call(1, types.Write{FD: 3, Data: []byte("x"), Size: 1}),
			call(1, types.Close{FD: 3}),
			call(1, types.Sync{}),
			call(1, types.Unlink{Path: "/f"}),
			crash(k),
			call(1, types.Stat{Path: "/f"}),
		)
		out = append(out, s)
	}
	return out
}

// crashTreeScripts: a multi-step tree build crashes midway; the ordered-log
// model admits exactly the build prefixes, which a readdir then observes.
func crashTreeScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		s := bare(caseName("crash", "tree", itoa(int64(k))),
			call(1, types.Mkdir{Path: "/d", Perm: 0o755}),
			call(1, types.Mkdir{Path: "/d/a", Perm: 0o755}),
			call(1, types.Mkdir{Path: "/d/b", Perm: 0o755}),
			call(1, types.Mkdir{Path: "/d/c", Perm: 0o755}),
			crash(k),
			call(1, types.Stat{Path: "/d"}),
			call(1, types.Stat{Path: "/d/a"}),
			call(1, types.Stat{Path: "/d/b"}),
			call(1, types.Stat{Path: "/d/c"}),
		)
		out = append(out, s)
	}
	return out
}

// crashOSyncScripts: writes through an O_SYNC descriptor self-flush, so the
// written data survives every crash with no explicit fsync — the behaviour
// the dormant-flag satellite pinned down.
func crashOSyncScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		s := bare(caseName("crash", "osync_write", itoa(int64(k))),
			call(1, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly | types.OSync, Perm: 0o644, HasPerm: true}),
			call(1, types.Write{FD: 3, Data: []byte("sync"), Size: 4}),
			call(1, types.Close{FD: 3}),
			crash(k),
		)
		s.Steps = append(s.Steps, crashObserve("/f")...)
		out = append(out, s)
	}
	return out
}

// crashDoubleScripts: two crashes in one script — the remounted state is
// itself durable, so a second immediate crash must be a no-op, and effects
// between the crashes feed a fresh pending log.
func crashDoubleScripts() []*trace.Script {
	var out []*trace.Script
	for _, k := range crashKeeps {
		s := bare(caseName("crash", "double", itoa(int64(k))),
			call(1, types.Mkdir{Path: "/d1", Perm: 0o755}),
			crash(k),
			crash(0),
			call(1, types.Stat{Path: "/d1"}),
			call(1, types.Mkdir{Path: "/d2", Perm: 0o755}),
			crash(k),
			call(1, types.Stat{Path: "/d1"}),
			call(1, types.Stat{Path: "/d2"}),
		)
		out = append(out, s)
	}
	return out
}
