package types

import "strconv"

// Pid identifies a process in the model of processes and the operating
// system (§1.1).
type Pid int

// FD is a per-process file descriptor.
type FD int

// DH is a per-process directory handle as returned by opendir.
type DH int

// Command is the Go encoding of the Lem variant type ty_os_command: one
// constructor per libc function in the model's scope. Go has no algebraic
// data types, so Command is a sealed interface implemented by one small
// struct per libc call; consumers dispatch with a type switch and treat an
// unknown variant as a programming error.
type Command interface {
	// Op returns the libc function name ("rename", "open", ...).
	Op() string
	// Append renders the command in trace syntax (Fig 2 of the paper)
	// onto b and returns the extended slice.
	Append(b []byte) []byte
	// String is Append's rendering as a string.
	String() string
	// isCommand prevents implementations outside this package.
	isCommand()
}

// The command variants, mirroring §1.1's list of calls in scope.
type (
	// Close models close(fd).
	Close struct{ FD FD }
	// Closedir models closedir(dh).
	Closedir struct{ DH DH }
	// Chdir models chdir(path).
	Chdir struct{ Path string }
	// Chmod models chmod(path, perm).
	Chmod struct {
		Path string
		Perm Perm
	}
	// Chown models chown(path, uid, gid).
	Chown struct {
		Path string
		Uid  Uid
		Gid  Gid
	}
	// Link models link(src, dst).
	Link struct{ Src, Dst string }
	// Lseek models lseek(fd, off, whence).
	Lseek struct {
		FD     FD
		Off    int64
		Whence SeekWhence
	}
	// Lstat models lstat(path).
	Lstat struct{ Path string }
	// Mkdir models mkdir(path, perm).
	Mkdir struct {
		Path string
		Perm Perm
	}
	// Open models open(path, flags[, perm]).
	Open struct {
		Path    string
		Flags   OpenFlags
		Perm    Perm
		HasPerm bool
	}
	// Opendir models opendir(path).
	Opendir struct{ Path string }
	// Pread models pread(fd, size, off).
	Pread struct {
		FD   FD
		Size int64
		Off  int64
	}
	// Pwrite models pwrite(fd, data, size, off).
	Pwrite struct {
		FD   FD
		Data []byte
		Size int64
		Off  int64
	}
	// Read models read(fd, size).
	Read struct {
		FD   FD
		Size int64
	}
	// Readdir models readdir(dh).
	Readdir struct{ DH DH }
	// Readlink models readlink(path).
	Readlink struct{ Path string }
	// Rename models rename(src, dst).
	Rename struct{ Src, Dst string }
	// Rewinddir models rewinddir(dh).
	Rewinddir struct{ DH DH }
	// Rmdir models rmdir(path).
	Rmdir struct{ Path string }
	// Stat models stat(path).
	Stat struct{ Path string }
	// Symlink models symlink(target, linkpath).
	Symlink struct{ Target, Linkpath string }
	// Truncate models truncate(path, len).
	Truncate struct {
		Path string
		Len  int64
	}
	// Unlink models unlink(path).
	Unlink struct{ Path string }
	// Write models write(fd, data, size).
	Write struct {
		FD   FD
		Data []byte
		Size int64
	}
	// Fsync models fsync(fd): flush the descriptor's pending effects to
	// durable storage. The model treats it as a global barrier (see the
	// "Crash consistency" section of ARCHITECTURE.md).
	Fsync struct{ FD FD }
	// Sync models sync(): flush all pending effects to durable storage.
	Sync struct{}
	// Umask models umask(mask).
	Umask struct{ Mask Perm }
	// AddUserToGroup extends the model of users and groups; it is part of
	// the test harness vocabulary rather than libc proper.
	AddUserToGroup struct {
		Uid Uid
		Gid Gid
	}
)

func (Close) isCommand()          {}
func (Closedir) isCommand()       {}
func (Chdir) isCommand()          {}
func (Chmod) isCommand()          {}
func (Chown) isCommand()          {}
func (Link) isCommand()           {}
func (Lseek) isCommand()          {}
func (Lstat) isCommand()          {}
func (Mkdir) isCommand()          {}
func (Open) isCommand()           {}
func (Opendir) isCommand()        {}
func (Pread) isCommand()          {}
func (Pwrite) isCommand()         {}
func (Read) isCommand()           {}
func (Readdir) isCommand()        {}
func (Readlink) isCommand()       {}
func (Rename) isCommand()         {}
func (Rewinddir) isCommand()      {}
func (Rmdir) isCommand()          {}
func (Stat) isCommand()           {}
func (Symlink) isCommand()        {}
func (Truncate) isCommand()       {}
func (Unlink) isCommand()         {}
func (Write) isCommand()          {}
func (Fsync) isCommand()          {}
func (Sync) isCommand()           {}
func (Umask) isCommand()          {}
func (AddUserToGroup) isCommand() {}

// Op implementations.
func (Close) Op() string          { return "close" }
func (Closedir) Op() string       { return "closedir" }
func (Chdir) Op() string          { return "chdir" }
func (Chmod) Op() string          { return "chmod" }
func (Chown) Op() string          { return "chown" }
func (Link) Op() string           { return "link" }
func (Lseek) Op() string          { return "lseek" }
func (Lstat) Op() string          { return "lstat" }
func (Mkdir) Op() string          { return "mkdir" }
func (Open) Op() string           { return "open" }
func (Opendir) Op() string        { return "opendir" }
func (Pread) Op() string          { return "pread" }
func (Pwrite) Op() string         { return "pwrite" }
func (Read) Op() string           { return "read" }
func (Readdir) Op() string        { return "readdir" }
func (Readlink) Op() string       { return "readlink" }
func (Rename) Op() string         { return "rename" }
func (Rewinddir) Op() string      { return "rewinddir" }
func (Rmdir) Op() string          { return "rmdir" }
func (Stat) Op() string           { return "stat" }
func (Symlink) Op() string        { return "symlink" }
func (Truncate) Op() string       { return "truncate" }
func (Unlink) Op() string         { return "unlink" }
func (Write) Op() string          { return "write" }
func (Fsync) Op() string          { return "fsync" }
func (Sync) Op() string           { return "sync" }
func (Umask) Op() string          { return "umask" }
func (AddUserToGroup) Op() string { return "add_user_to_group" }

// Append implementations render the trace-file syntax of Fig 2 onto b;
// String is the same rendering as a string.
func (c Close) Append(b []byte) []byte    { return appendFD(append(b, "close "...), c.FD) }
func (c Closedir) Append(b []byte) []byte { return appendDH(append(b, "closedir "...), c.DH) }
func (c Chdir) Append(b []byte) []byte    { return appendQuote(append(b, "chdir "...), c.Path) }
func (c Chmod) Append(b []byte) []byte {
	b = appendQuote(append(b, "chmod "...), c.Path)
	return c.Perm.Append(append(b, ' '))
}
func (c Chown) Append(b []byte) []byte {
	b = appendQuote(append(b, "chown "...), c.Path)
	return appendUidGid(b, c.Uid, c.Gid)
}
func (c Link) Append(b []byte) []byte {
	return appendTwoPaths(append(b, "link "...), c.Src, c.Dst)
}
func (c Lseek) Append(b []byte) []byte {
	b = appendFD(append(b, "lseek "...), c.FD)
	b = strconv.AppendInt(append(b, ' '), c.Off, 10)
	return c.Whence.Append(append(b, ' '))
}
func (c Lstat) Append(b []byte) []byte { return appendQuote(append(b, "lstat "...), c.Path) }
func (c Mkdir) Append(b []byte) []byte {
	b = appendQuote(append(b, "mkdir "...), c.Path)
	return c.Perm.Append(append(b, ' '))
}
func (c Open) Append(b []byte) []byte {
	b = appendQuote(append(b, "open "...), c.Path)
	b = c.Flags.Append(append(b, ' '))
	if c.HasPerm {
		b = c.Perm.Append(append(b, ' '))
	}
	return b
}
func (c Opendir) Append(b []byte) []byte {
	return appendQuote(append(b, "opendir "...), c.Path)
}
func (c Pread) Append(b []byte) []byte {
	b = appendFD(append(b, "pread "...), c.FD)
	b = strconv.AppendInt(append(b, ' '), c.Size, 10)
	return strconv.AppendInt(append(b, ' '), c.Off, 10)
}
func (c Pwrite) Append(b []byte) []byte {
	b = appendFD(append(b, "pwrite "...), c.FD)
	b = appendQuote(append(b, ' '), string(c.Data))
	b = strconv.AppendInt(append(b, ' '), c.Size, 10)
	return strconv.AppendInt(append(b, ' '), c.Off, 10)
}
func (c Read) Append(b []byte) []byte {
	b = appendFD(append(b, "read "...), c.FD)
	return strconv.AppendInt(append(b, ' '), c.Size, 10)
}
func (c Readdir) Append(b []byte) []byte { return appendDH(append(b, "readdir "...), c.DH) }
func (c Readlink) Append(b []byte) []byte {
	return appendQuote(append(b, "readlink "...), c.Path)
}
func (c Rename) Append(b []byte) []byte {
	return appendTwoPaths(append(b, "rename "...), c.Src, c.Dst)
}
func (c Rewinddir) Append(b []byte) []byte { return appendDH(append(b, "rewinddir "...), c.DH) }
func (c Rmdir) Append(b []byte) []byte     { return appendQuote(append(b, "rmdir "...), c.Path) }
func (c Stat) Append(b []byte) []byte      { return appendQuote(append(b, "stat "...), c.Path) }
func (c Symlink) Append(b []byte) []byte {
	return appendTwoPaths(append(b, "symlink "...), c.Target, c.Linkpath)
}
func (c Truncate) Append(b []byte) []byte {
	b = appendQuote(append(b, "truncate "...), c.Path)
	return strconv.AppendInt(append(b, ' '), c.Len, 10)
}
func (c Unlink) Append(b []byte) []byte { return appendQuote(append(b, "unlink "...), c.Path) }
func (c Write) Append(b []byte) []byte {
	b = appendFD(append(b, "write "...), c.FD)
	b = appendQuote(append(b, ' '), string(c.Data))
	return strconv.AppendInt(append(b, ' '), c.Size, 10)
}
func (c Fsync) Append(b []byte) []byte { return appendFD(append(b, "fsync "...), c.FD) }
func (Sync) Append(b []byte) []byte    { return append(b, "sync"...) }
func (c Umask) Append(b []byte) []byte { return c.Mask.Append(append(b, "umask "...)) }
func (c AddUserToGroup) Append(b []byte) []byte {
	return appendUidGid(append(b, "add_user_to_group"...), c.Uid, c.Gid)
}

func (c Close) String() string          { return string(c.Append(nil)) }
func (c Closedir) String() string       { return string(c.Append(nil)) }
func (c Chdir) String() string          { return string(c.Append(nil)) }
func (c Chmod) String() string          { return string(c.Append(nil)) }
func (c Chown) String() string          { return string(c.Append(nil)) }
func (c Link) String() string           { return string(c.Append(nil)) }
func (c Lseek) String() string          { return string(c.Append(nil)) }
func (c Lstat) String() string          { return string(c.Append(nil)) }
func (c Mkdir) String() string          { return string(c.Append(nil)) }
func (c Open) String() string           { return string(c.Append(nil)) }
func (c Opendir) String() string        { return string(c.Append(nil)) }
func (c Pread) String() string          { return string(c.Append(nil)) }
func (c Pwrite) String() string         { return string(c.Append(nil)) }
func (c Read) String() string           { return string(c.Append(nil)) }
func (c Readdir) String() string        { return string(c.Append(nil)) }
func (c Readlink) String() string       { return string(c.Append(nil)) }
func (c Rename) String() string         { return string(c.Append(nil)) }
func (c Rewinddir) String() string      { return string(c.Append(nil)) }
func (c Rmdir) String() string          { return string(c.Append(nil)) }
func (c Stat) String() string           { return string(c.Append(nil)) }
func (c Symlink) String() string        { return string(c.Append(nil)) }
func (c Truncate) String() string       { return string(c.Append(nil)) }
func (c Unlink) String() string         { return string(c.Append(nil)) }
func (c Write) String() string          { return string(c.Append(nil)) }
func (c Fsync) String() string          { return string(c.Append(nil)) }
func (c Sync) String() string           { return string(c.Append(nil)) }
func (c Umask) String() string          { return string(c.Append(nil)) }
func (c AddUserToGroup) String() string { return string(c.Append(nil)) }

// appendFD renders a descriptor argument: "(FD 3)".
func appendFD(b []byte, fd FD) []byte {
	return append(strconv.AppendInt(append(b, "(FD "...), int64(fd), 10), ')')
}

// appendDH renders a directory-handle argument: "(DH 1)".
func appendDH(b []byte, dh DH) []byte {
	return append(strconv.AppendInt(append(b, "(DH "...), int64(dh), 10), ')')
}

// appendTwoPaths renders two quoted path arguments separated by a space.
func appendTwoPaths(b []byte, p1, p2 string) []byte {
	b = appendQuote(b, p1)
	return appendQuote(append(b, ' '), p2)
}

// appendUidGid renders " uid gid".
func appendUidGid(b []byte, u Uid, g Gid) []byte {
	b = strconv.AppendInt(append(b, ' '), int64(u), 10)
	return strconv.AppendInt(append(b, ' '), int64(g), 10)
}

// appendQuote is strconv.AppendQuote with a copying fast path for
// printable ASCII without quotes or backslashes, which is every path the
// generated suite uses; strconv would decode and classify it rune by rune.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
