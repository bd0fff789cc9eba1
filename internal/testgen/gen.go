package testgen

import (
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/types"
)

// Suite is the generated test suite with per-group counts (the paper's
// suite has 21 070 scripts; ours is tuned to the same order — see
// TestTable61SuiteSize).
type Suite struct {
	Scripts []*trace.Script
}

// Generate builds the full suite: combinatorial single-path and two-path
// tests, the open flag matrix, read/write sequences, directory-stream
// tests, multi-process permission tests, and the hand-written survey
// scenarios.
func Generate() *Suite {
	s := &Suite{}
	s.Scripts = append(s.Scripts, SinglePathScripts()...)
	s.Scripts = append(s.Scripts, TwoPathScripts()...)
	s.Scripts = append(s.Scripts, SymlinkScripts()...)
	s.Scripts = append(s.Scripts, OpenScripts()...)
	s.Scripts = append(s.Scripts, ReadWriteScripts()...)
	s.Scripts = append(s.Scripts, DirStreamScripts()...)
	s.Scripts = append(s.Scripts, PermissionScripts()...)
	s.Scripts = append(s.Scripts, HandwrittenScripts()...)
	return s
}

// GroupOf extracts the command group from a script name
// ("rename___a___b" → "rename").
func GroupOf(name string) string {
	if i := strings.Index(name, "___"); i >= 0 {
		return name[:i]
	}
	return name
}

// Stats counts scripts per group.
func (s *Suite) Stats() map[string]int {
	m := make(map[string]int)
	for _, sc := range s.Scripts {
		m[GroupOf(sc.Name)]++
	}
	return m
}

// Groups returns group names sorted.
func (s *Suite) Groups() []string {
	m := s.Stats()
	out := make([]string, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// SinglePathScripts generates the combinatorial tests for commands taking
// one path argument.
func SinglePathScripts() []*trace.Script {
	var out []*trace.Script
	for _, pc := range PathCases {
		out = append(out,
			script(caseName("stat", pc.Class), types.Stat{Path: pc.Path}),
			script(caseName("lstat", pc.Class), types.Lstat{Path: pc.Path}),
			script(caseName("rmdir", pc.Class), types.Rmdir{Path: pc.Path}),
			script(caseName("unlink", pc.Class), types.Unlink{Path: pc.Path}),
			script(caseName("opendir", pc.Class), types.Opendir{Path: pc.Path}),
			script(caseName("readlink", pc.Class), types.Readlink{Path: pc.Path}),
			// chdir followed by a relative operation, to observe the cwd.
			script(caseName("chdir", pc.Class),
				types.Chdir{Path: pc.Path},
				types.Stat{Path: "f_reg"},
			),
		)
		for _, perm := range []types.Perm{0o755, 0o700, 0o777, 0o000} {
			out = append(out, script(caseName("mkdir", pc.Class, perm.String()),
				types.Mkdir{Path: pc.Path, Perm: perm},
				types.Stat{Path: pc.Path},
			))
		}
		for _, ln := range []int64{0, 1, 2, 4096, -1} {
			out = append(out, script(caseName("truncate", pc.Class, itoa(ln)),
				types.Truncate{Path: pc.Path, Len: ln},
				types.Stat{Path: pc.Path},
			))
		}
		for _, perm := range []types.Perm{0o644, 0o755, 0o000, 0o4755} {
			out = append(out, script(caseName("chmod", pc.Class, perm.String()),
				types.Chmod{Path: pc.Path, Perm: perm},
				types.Stat{Path: pc.Path},
			))
		}
		out = append(out, script(caseName("chown", pc.Class),
			types.Chown{Path: pc.Path, Uid: 0, Gid: 0},
		))
	}
	return out
}

// TwoPathScripts generates the full product of path classes for link and
// rename — the commands where the paper's combinatorial approach yields
// the most tests (≈2 500 for rename against OpenGroup's ≈50). The product
// also covers the two-path relations of §6.1: equal paths (same class),
// hard links to the same file (file × hardlink), and proper-prefix pairs
// (dir_nonempty × file_in_nonempty).
func TwoPathScripts() []*trace.Script {
	var out []*trace.Script
	for _, a := range PathCases {
		for _, b := range PathCases {
			out = append(out, script(caseName("rename", a.Class, b.Class),
				types.Rename{Src: a.Path, Dst: b.Path},
				types.Stat{Path: a.Path},
				types.Stat{Path: b.Path},
			))
			out = append(out, script(caseName("link", a.Class, b.Class),
				types.Link{Src: a.Path, Dst: b.Path},
				types.Lstat{Path: b.Path},
			))
		}
	}
	return out
}

// SymlinkScripts generates target × linkpath combinations.
func SymlinkScripts() []*trace.Script {
	var out []*trace.Script
	for _, tgt := range TargetCases {
		for _, lp := range PathCases {
			out = append(out, script(caseName("symlink", tgt.Class, lp.Class),
				types.Symlink{Target: tgt.Path, Linkpath: lp.Path},
				types.Lstat{Path: lp.Path},
				types.Readlink{Path: lp.Path},
			))
		}
	}
	return out
}

func itoa(n int64) string {
	if n < 0 {
		return "neg" + itoa(-n)
	}
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
