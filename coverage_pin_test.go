package sibylfs

// Exact model-coverage pins. Each pinned run records into a registry of
// its own (WithCoverage), so no other test in the process can move the
// figures; a change to how coverage is recorded must reproduce them
// point for point.

import (
	"context"
	"reflect"
	"testing"
)

// coveragePin is a run's exact model-coverage figures: points hit, points
// registered, and the sorted ids of the points never hit.
type coveragePin struct {
	hit, total int
	unhit      []string
}

// assertCoverage compares a session's coverage figures with want.
func assertCoverage(t *testing.T, what string, s *Session, want coveragePin) {
	t.Helper()
	hit, total := s.Coverage()
	unhit := s.CoverageUnhit()
	if hit != want.hit || total != want.total {
		t.Errorf("%s: coverage %d/%d points, want %d/%d", what, hit, total, want.hit, want.total)
	}
	if !reflect.DeepEqual(unhit, want.unhit) {
		t.Errorf("%s: unhit points %q, want %q", what, unhit, want.unhit)
	}
}

// TestSpecFSCoveragePinned pins the coverage the determinized model
// (spec:linux) hits while *executing* a sample of the suite, before any
// checking: execution-side model evaluation is attributed to the session
// that executes it.
func TestSpecFSCoveragePinned(t *testing.T) {
	var sample []*Script
	for i, s := range generate(t, (*Session).Generate) {
		if i%50 == 0 {
			sample = append(sample, s)
		}
	}
	session := New(WithCoverage(NewCoverageRegistry()), WithWorkers(2))
	traces, err := session.Execute(context.Background(), sample, SpecFS("spec:linux", DefaultSpec()))
	if err != nil {
		t.Fatal(err)
	}
	assertCoverage(t, "spec:linux execution", session, specFSCoverage)
	results, err := session.Check(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Accepted {
			t.Errorf("%s: spec:linux trace rejected", r.Name)
		}
	}
}

// The pinned figures, recorded before per-trace hit sets replaced the
// process-wide counters. specFSCoverage differs from that record in one
// point, osspec/trans/create, and agrees with the same run recorded into
// the shared registry: the isolating wrapper of the time attributed
// Apply and Crash but ran CreateProcess outside its window. Every pin has
// since gained osspec/trans/tau, now recorded wherever a τ is processed
// (TauFor and the closure's expansions), not only by Trans(…, TauLabel),
// which no checking path calls.
var (
	suiteCoverage = coveragePin{106, 107, []string{
		"osspec/trans/crash",
	}}
	concurrentCoverage = map[int64]coveragePin{
		1: {33, 107, []string{
			"fsspec/chdir/not_dir", "fsspec/chdir/ok", "fsspec/chdir/perm",
			"fsspec/chdir/resolve_error", "fsspec/chmod/not_owner",
			"fsspec/chmod/resolve_error", "fsspec/chown/not_permitted",
			"fsspec/chown/ok", "fsspec/link/dst_error", "fsspec/link/dst_exists",
			"fsspec/link/ok", "fsspec/link/perm", "fsspec/link/src_dir",
			"fsspec/link/src_error", "fsspec/link/src_symlink",
			"fsspec/link/trailing", "fsspec/open/dir", "fsspec/open/dir_writable",
			"fsspec/open/missing_no_creat", "fsspec/open/nofollow_symlink",
			"fsspec/open/o_directory_file", "fsspec/open/trailing",
			"fsspec/opendir/error", "fsspec/opendir/ok",
			"fsspec/readlink/not_symlink", "fsspec/readlink/ok",
			"fsspec/readlink/resolve_error", "fsspec/rename/dst_error",
			"fsspec/rename/kind_mismatch", "fsspec/rename/nonempty_dst",
			"fsspec/rename/ok_file", "fsspec/rename/parentdirs",
			"fsspec/rename/perms", "fsspec/rename/root",
			"fsspec/rename/same_object", "fsspec/rename/src_error",
			"fsspec/rename/subdir", "fsspec/rename/trailing_slash",
			"fsspec/rmdir/disconnected", "fsspec/rmdir/dot", "fsspec/rmdir/not_dir",
			"fsspec/rmdir/perm", "fsspec/rmdir/root", "fsspec/rmdir/sticky",
			"fsspec/symlink/empty_target", "fsspec/symlink/exists",
			"fsspec/symlink/perm", "fsspec/symlink/resolve_error",
			"fsspec/truncate/is_dir", "fsspec/truncate/negative",
			"fsspec/truncate/ok", "fsspec/truncate/perm",
			"fsspec/truncate/resolve_error", "fsspec/unlink/is_dir",
			"fsspec/unlink/perm", "fsspec/unlink/sticky", "osspec/closedir/ebadf",
			"osspec/closedir/ok", "osspec/lseek/ebadf", "osspec/lseek/einval",
			"osspec/lseek/ok", "osspec/opendir/alloc", "osspec/pwrite/linux_append",
			"osspec/read/ebadf", "osspec/read/einval", "osspec/read/eisdir",
			"osspec/read/ok", "osspec/readdir/ebadf", "osspec/readdir/ok",
			"osspec/rewinddir/ebadf", "osspec/rewinddir/ok", "osspec/trans/crash",
			"osspec/write/einval", "osspec/write/zero_len",
		}},
		2: {31, 107, []string{
			"fsspec/chdir/not_dir", "fsspec/chdir/ok", "fsspec/chdir/perm",
			"fsspec/chdir/resolve_error", "fsspec/chmod/not_owner",
			"fsspec/chmod/resolve_error", "fsspec/chown/not_permitted",
			"fsspec/chown/ok", "fsspec/link/dst_error", "fsspec/link/dst_exists",
			"fsspec/link/ok", "fsspec/link/perm", "fsspec/link/src_dir",
			"fsspec/link/src_error", "fsspec/link/src_symlink",
			"fsspec/link/trailing", "fsspec/open/dir", "fsspec/open/dir_writable",
			"fsspec/open/existing", "fsspec/open/missing_no_creat",
			"fsspec/open/nofollow_symlink", "fsspec/open/o_directory_file",
			"fsspec/open/trailing", "fsspec/opendir/error", "fsspec/opendir/ok",
			"fsspec/readlink/not_symlink", "fsspec/readlink/ok",
			"fsspec/readlink/resolve_error", "fsspec/rename/dst_error",
			"fsspec/rename/kind_mismatch", "fsspec/rename/nonempty_dst",
			"fsspec/rename/ok_file", "fsspec/rename/parentdirs",
			"fsspec/rename/perms", "fsspec/rename/root",
			"fsspec/rename/same_object", "fsspec/rename/src_error",
			"fsspec/rename/subdir", "fsspec/rename/trailing_slash",
			"fsspec/rmdir/disconnected", "fsspec/rmdir/dot", "fsspec/rmdir/not_dir",
			"fsspec/rmdir/perm", "fsspec/rmdir/root", "fsspec/rmdir/sticky",
			"fsspec/symlink/empty_target", "fsspec/symlink/exists",
			"fsspec/symlink/perm", "fsspec/symlink/resolve_error",
			"fsspec/truncate/is_dir", "fsspec/truncate/negative",
			"fsspec/truncate/ok", "fsspec/truncate/perm",
			"fsspec/truncate/resolve_error", "fsspec/unlink/is_dir",
			"fsspec/unlink/perm", "fsspec/unlink/resolve_error",
			"fsspec/unlink/sticky", "osspec/closedir/ebadf", "osspec/closedir/ok",
			"osspec/lseek/ebadf", "osspec/lseek/einval", "osspec/lseek/ok",
			"osspec/opendir/alloc", "osspec/pwrite/linux_append",
			"osspec/read/ebadf", "osspec/read/einval", "osspec/read/eisdir",
			"osspec/read/ok", "osspec/readdir/ebadf", "osspec/readdir/ok",
			"osspec/rewinddir/ebadf", "osspec/rewinddir/ok", "osspec/trans/crash",
			"osspec/write/einval", "osspec/write/zero_len",
		}},
	}
	crashCoverage = coveragePin{19, 107, []string{
		"fsspec/chdir/not_dir", "fsspec/chdir/ok", "fsspec/chdir/perm",
		"fsspec/chdir/resolve_error", "fsspec/chmod/not_owner",
		"fsspec/chmod/ok", "fsspec/chmod/resolve_error",
		"fsspec/chown/not_permitted", "fsspec/chown/ok", "fsspec/link/dst_error",
		"fsspec/link/dst_exists", "fsspec/link/ok", "fsspec/link/perm",
		"fsspec/link/src_dir", "fsspec/link/src_error",
		"fsspec/link/src_symlink", "fsspec/link/trailing", "fsspec/lstat/ok",
		"fsspec/mkdir/exists", "fsspec/mkdir/parent_perm",
		"fsspec/mkdir/resolve_error", "fsspec/open/dir",
		"fsspec/open/dir_writable", "fsspec/open/excl_exists",
		"fsspec/open/nofollow_symlink", "fsspec/open/o_directory_file",
		"fsspec/open/perm", "fsspec/open/resolve_error", "fsspec/open/trailing",
		"fsspec/opendir/error", "fsspec/opendir/ok",
		"fsspec/readlink/not_symlink", "fsspec/readlink/ok",
		"fsspec/readlink/resolve_error", "fsspec/rename/dst_error",
		"fsspec/rename/kind_mismatch", "fsspec/rename/nonempty_dst",
		"fsspec/rename/ok_dir", "fsspec/rename/parentdirs",
		"fsspec/rename/perms", "fsspec/rename/root", "fsspec/rename/same_object",
		"fsspec/rename/src_error", "fsspec/rename/subdir",
		"fsspec/rename/trailing_slash", "fsspec/rmdir/disconnected",
		"fsspec/rmdir/dot", "fsspec/rmdir/missing", "fsspec/rmdir/not_dir",
		"fsspec/rmdir/not_empty", "fsspec/rmdir/ok", "fsspec/rmdir/perm",
		"fsspec/rmdir/resolve_error", "fsspec/rmdir/root", "fsspec/rmdir/sticky",
		"fsspec/symlink/empty_target", "fsspec/symlink/exists",
		"fsspec/symlink/ok", "fsspec/symlink/perm",
		"fsspec/symlink/resolve_error", "fsspec/truncate/is_dir",
		"fsspec/truncate/negative", "fsspec/truncate/ok", "fsspec/truncate/perm",
		"fsspec/truncate/resolve_error", "fsspec/unlink/is_dir",
		"fsspec/unlink/missing", "fsspec/unlink/perm",
		"fsspec/unlink/resolve_error", "fsspec/unlink/sticky",
		"osspec/closedir/ebadf", "osspec/closedir/ok", "osspec/lseek/ebadf",
		"osspec/lseek/einval", "osspec/lseek/ok", "osspec/opendir/alloc",
		"osspec/pwrite/linux_append", "osspec/read/einval", "osspec/read/eisdir",
		"osspec/readdir/ebadf", "osspec/readdir/ok", "osspec/rewinddir/ebadf",
		"osspec/rewinddir/ok", "osspec/trans/create", "osspec/trans/destroy",
		"osspec/write/ebadf", "osspec/write/einval", "osspec/write/zero_len",
	}}
	specFSCoverage = coveragePin{69, 107, []string{
		"fsspec/chdir/not_dir", "fsspec/chdir/resolve_error",
		"fsspec/link/dst_error", "fsspec/link/dst_exists", "fsspec/link/src_dir",
		"fsspec/link/src_error", "fsspec/link/src_symlink",
		"fsspec/link/trailing", "fsspec/readlink/resolve_error",
		"fsspec/rename/nonempty_dst", "fsspec/rmdir/disconnected",
		"fsspec/rmdir/dot", "fsspec/rmdir/not_dir", "fsspec/rmdir/not_empty",
		"fsspec/rmdir/ok", "fsspec/rmdir/perm", "fsspec/rmdir/root",
		"fsspec/rmdir/sticky", "fsspec/symlink/empty_target",
		"fsspec/symlink/resolve_error", "fsspec/truncate/negative",
		"fsspec/unlink/is_dir", "fsspec/unlink/missing", "fsspec/unlink/perm",
		"osspec/closedir/ebadf", "osspec/lseek/ebadf", "osspec/lseek/einval",
		"osspec/pwrite/linux_append", "osspec/read/einval", "osspec/read/eisdir",
		"osspec/readdir/ebadf", "osspec/rewinddir/ebadf", "osspec/rewinddir/ok",
		"osspec/trans/bad_pid", "osspec/trans/crash",
		"osspec/trans/destroy", "osspec/write/einval", "osspec/write/zero_len",
	}}
)
