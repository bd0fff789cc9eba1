package osspec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/state"
	"repro/internal/types"
)

// Dump renders a human-readable description of one model state — the
// backing of the model-debugging tool of §2, which "takes a trace and
// produces a description of the real-world states that were being tracked
// by SibylFS at every step".
func (s *OsState) Dump() string {
	var b strings.Builder
	b.WriteString("file system:\n")
	s.dumpDir(&b, s.H.Root, "/", 1)

	for _, e := range s.procs {
		pid, p := e.pid, e.p
		fmt.Fprintf(&b, "process %d: uid=%d gid=%d umask=%04o cwd=dir#%d", pid, p.Euid, p.Egid, p.Umask, p.Cwd)
		switch p.Run {
		case RsRunning:
			b.WriteString(" [running]")
		case RsCalling:
			fmt.Fprintf(&b, " [calling %s]", p.PendingCmd)
		case RsReturning:
			fmt.Fprintf(&b, " [returning: %s]", p.PendingRet.Describe())
		}
		b.WriteByte('\n')
		fds := make([]int, 0, len(p.Fds))
		for fd := range p.Fds {
			fds = append(fds, int(fd))
		}
		sort.Ints(fds)
		for _, fd := range fds {
			fid := s.fids[p.Fds[types.FD(fd)]]
			if fid.IsDir {
				fmt.Fprintf(&b, "  fd %d -> dir#%d\n", fd, fid.Dir)
			} else {
				fmt.Fprintf(&b, "  fd %d -> file#%d off=%d append=%v rw=%v%v\n",
					fd, fid.File, fid.Offset, fid.Append, fid.Readable, fid.Writable)
			}
		}
		dhs := make([]int, 0, len(p.Dhs))
		for dh := range p.Dhs {
			dhs = append(dhs, int(dh))
		}
		sort.Ints(dhs)
		for _, dh := range dhs {
			h := p.Dhs[types.DH(dh)]
			fmt.Fprintf(&b, "  dh %d -> dir#%d must=%v may=%v returned=%v\n",
				dh, h.Dir, sortedKeys(h.Must), sortedKeys(h.May), sortedKeys(h.Returned))
		}
	}
	return b.String()
}

func (s *OsState) dumpDir(b *strings.Builder, d state.DirRef, path string, depth int) {
	if depth > 16 {
		fmt.Fprintf(b, "%s... (depth limit)\n", strings.Repeat("  ", depth))
		return
	}
	dir := s.H.Dir(d)
	if dir == nil {
		return
	}
	fmt.Fprintf(b, "  %-30s dir#%d mode=%04o uid=%d gid=%d\n", path, d, dir.Perm, dir.Uid, dir.Gid)
	for _, name := range s.H.EntryNames(d) {
		e := dir.Entries[name]
		child := path + name
		switch e.Kind {
		case state.EntryDir:
			s.dumpDir(b, e.Dir, child+"/", depth+1)
		case state.EntrySymlink:
			f := s.H.File(e.File)
			fmt.Fprintf(b, "  %-30s symlink#%d -> %q\n", child, e.File, string(f.Bytes))
		case state.EntryFile:
			f := s.H.File(e.File)
			fmt.Fprintf(b, "  %-30s file#%d %d bytes mode=%04o nlink=%d\n",
				child, e.File, len(f.Bytes), f.Perm, f.Nlink)
		}
	}
}
