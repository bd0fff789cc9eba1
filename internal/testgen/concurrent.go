package testgen

import (
	"repro/internal/trace"
	"repro/internal/types"
)

// ConcurrentScripts generates the multi-process universe: 2–4 processes
// issuing overlapping create/mkdir/rename/unlink/open calls on shared
// paths, plus permission races between distinct uids. Run sequentially the
// scripts are ordinary multi-process tests; run through the concurrent
// executor their calls genuinely interleave, which is what finally
// stresses the oracle's τ-closure and the MaxStates metric of §7.1
// (§3: "the nondeterminism arising from concurrent OS calls").
//
// The scripts avoid directory streams: readdir nondeterminism is covered
// by DirStreamScripts, and mixing it with call interleaving would multiply
// envelope sizes without testing anything new.
func ConcurrentScripts() []*trace.Script {
	var out []*trace.Script
	out = append(out, concMkdirRaces()...)
	out = append(out, concExclCreateRaces()...)
	out = append(out, concUnlinkCreateRaces()...)
	out = append(out, concRenameRaces()...)
	out = append(out, concTreeRaces()...)
	out = append(out, concPermissionRaces()...)
	return out
}

// concPids returns pids 1..n, emitting creates for 2..n (pid 1 is the
// harness's implicit root process).
func concPids(s *trace.Script, n int, uid types.Uid, gid types.Gid) []types.Pid {
	pids := []types.Pid{1}
	for p := 2; p <= n; p++ {
		s.Steps = append(s.Steps, create(types.Pid(p), uid, gid))
		pids = append(pids, types.Pid(p))
	}
	return pids
}

func destroyAll(s *trace.Script, pids []types.Pid) {
	for _, p := range pids {
		if p == 1 {
			continue
		}
		s.Steps = append(s.Steps, trace.Step{Label: types.DestroyLabel{Pid: p}})
	}
}

// concMkdirRaces: n processes race to create the same directory, then each
// builds a distinct child under it. Exactly one mkdir of the shared path
// may succeed; every interleaving of the children is allowed.
func concMkdirRaces() []*trace.Script {
	var out []*trace.Script
	for n := 2; n <= 4; n++ {
		s := bare(caseName("conc", "mkdir_race", itoa(int64(n))))
		pids := concPids(s, n, types.RootUid, types.RootGid)
		for _, p := range pids {
			sub := "/r/c" + itoa(int64(p))
			s.Steps = append(s.Steps,
				call(p, types.Mkdir{Path: "/r", Perm: 0o755}),
				call(p, types.Mkdir{Path: sub, Perm: 0o755}),
				call(p, types.Stat{Path: "/r"}),
				call(p, types.Stat{Path: sub}),
			)
		}
		destroyAll(s, pids)
		out = append(out, s)
	}
	return out
}

// concExclCreateRaces: n processes race an O_CREAT|O_EXCL open of one
// path; at most one wins. Each then writes through its (per-process) first
// descriptor — EBADF for the losers, whose open allocated nothing.
func concExclCreateRaces() []*trace.Script {
	var out []*trace.Script
	for n := 2; n <= 4; n++ {
		s := bare(caseName("conc", "excl_create_race", itoa(int64(n))))
		pids := concPids(s, n, types.RootUid, types.RootGid)
		for _, p := range pids {
			data := []byte{byte('a' + int(p))}
			s.Steps = append(s.Steps,
				call(p, types.Open{Path: "/f", Flags: types.OCreat | types.OExcl | types.OWronly, Perm: 0o644, HasPerm: true}),
				call(p, types.Write{FD: 3, Data: data, Size: 1}),
				call(p, types.Close{FD: 3}),
				call(p, types.Stat{Path: "/f"}),
			)
		}
		destroyAll(s, pids)
		out = append(out, s)
	}
	return out
}

// concUnlinkCreateRaces: a creator repeatedly makes a file while an
// unlinker races to remove it and an observer stats it — every answer
// (present, absent, just-created) is some linearisation.
func concUnlinkCreateRaces() []*trace.Script {
	var out []*trace.Script
	for _, rounds := range []int{1, 2, 3} {
		s := bare(caseName("conc", "unlink_create_race", itoa(int64(rounds))))
		pids := concPids(s, 3, types.RootUid, types.RootGid)
		creator, unlinker, observer := pids[0], pids[1], pids[2]
		for i := 0; i < rounds; i++ {
			s.Steps = append(s.Steps,
				call(creator, types.Open{Path: "/shared", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
				call(creator, types.Close{FD: types.FD(3 + i)}),
			)
			s.Steps = append(s.Steps,
				call(unlinker, types.Unlink{Path: "/shared"}),
			)
			s.Steps = append(s.Steps,
				call(observer, types.Stat{Path: "/shared"}),
				call(observer, types.Lstat{Path: "/shared"}),
			)
		}
		destroyAll(s, pids)
		out = append(out, s)
	}
	return out
}

// concRenameRaces: two processes race renames over a shared name while a
// third observes both endpoints.
func concRenameRaces() []*trace.Script {
	var out []*trace.Script
	for _, variant := range []struct {
		tag        string
		aSrc, aDst string
		bSrc, bDst string
	}{
		{"chain", "/m", "/n", "/n", "/o"},
		{"swap", "/m", "/n", "/n", "/m"},
		{"same_dst", "/m", "/t", "/n", "/t"},
	} {
		s := bare(caseName("conc", "rename_race", variant.tag))
		pids := concPids(s, 3, types.RootUid, types.RootGid)
		a, b, obs := pids[0], pids[1], pids[2]
		s.Steps = append(s.Steps,
			call(a, types.Mkdir{Path: variant.aSrc, Perm: 0o755}),
			call(a, types.Rename{Src: variant.aSrc, Dst: variant.aDst}),
			call(a, types.Stat{Path: variant.aDst}),
		)
		s.Steps = append(s.Steps,
			call(b, types.Mkdir{Path: variant.bSrc, Perm: 0o755}),
			call(b, types.Rename{Src: variant.bSrc, Dst: variant.bDst}),
			call(b, types.Stat{Path: variant.bDst}),
		)
		s.Steps = append(s.Steps,
			call(obs, types.Stat{Path: variant.aSrc}),
			call(obs, types.Stat{Path: variant.bDst}),
		)
		destroyAll(s, pids)
		out = append(out, s)
	}
	return out
}

// concTreeRaces: one process grows a small tree while another tears it
// down — mkdir/rmdir and the ENOTEMPTY/ENOENT races between them.
func concTreeRaces() []*trace.Script {
	var out []*trace.Script
	for n := 2; n <= 3; n++ {
		s := bare(caseName("conc", "tree_race", itoa(int64(n))))
		pids := concPids(s, n, types.RootUid, types.RootGid)
		builder := pids[0]
		s.Steps = append(s.Steps,
			call(builder, types.Mkdir{Path: "/d", Perm: 0o755}),
			call(builder, types.Mkdir{Path: "/d/sub", Perm: 0o755}),
			call(builder, types.Symlink{Target: "sub", Linkpath: "/d/link"}),
		)
		for _, p := range pids[1:] {
			s.Steps = append(s.Steps,
				call(p, types.Rmdir{Path: "/d/sub"}),
				call(p, types.Unlink{Path: "/d/link"}),
				call(p, types.Rmdir{Path: "/d"}),
				call(p, types.Stat{Path: "/d"}),
			)
		}
		destroyAll(s, pids)
		out = append(out, s)
	}
	return out
}

// concPermissionRaces: root flips the arena's mode while non-root
// processes with distinct uids race operations inside it — whether each
// call lands before or after the chmod decides EACCES vs success, and the
// oracle must track both.
func concPermissionRaces() []*trace.Script {
	var out []*trace.Script
	for _, mode := range []types.Perm{0o700, 0o755, 0o777, 0o000} {
		s := bare(caseName("conc", "perm_race", mode.String()))
		s.Steps = append(s.Steps,
			call(1, types.Mkdir{Path: "/p", Perm: 0o777}),
			call(1, types.Chmod{Path: "/p", Perm: mode}),
			call(1, types.Stat{Path: "/p"}),
		)
		// Two distinct non-root identities racing the chmod.
		s.Steps = append(s.Steps, create(2, 1000, 1000))
		s.Steps = append(s.Steps,
			call(2, types.Mkdir{Path: "/p/mine", Perm: 0o755}),
			call(2, types.Stat{Path: "/p/mine"}),
		)
		s.Steps = append(s.Steps, create(3, 1002, 1002))
		s.Steps = append(s.Steps,
			call(3, types.Open{Path: "/p/theirs", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
			call(3, types.Close{FD: 3}),
			call(3, types.Stat{Path: "/p"}),
		)
		destroyAll(s, []types.Pid{1, 2, 3})
		out = append(out, s)
	}
	return out
}
