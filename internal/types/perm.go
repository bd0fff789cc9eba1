package types

import "strconv"

// Uid and Gid identify users and groups in the model of users/groups that
// the permissions trait works over (§1.1 of the paper).
type Uid int

// Gid is a group identifier.
type Gid int

// RootUid is the superuser; permission checks are bypassed for it.
const RootUid Uid = 0

// RootGid is the superuser's primary group.
const RootGid Gid = 0

// Perm is a file mode as passed to mkdir/open/chmod: the low nine bits are
// the usual rwxrwxrwx triplet plus setuid/setgid/sticky above them.
type Perm uint32

// Permission bit masks.
const (
	PermIRUSR Perm = 0o400
	PermIWUSR Perm = 0o200
	PermIXUSR Perm = 0o100
	PermIRGRP Perm = 0o040
	PermIWGRP Perm = 0o020
	PermIXGRP Perm = 0o010
	PermIROTH Perm = 0o004
	PermIWOTH Perm = 0o002
	PermIXOTH Perm = 0o001
	PermISUID Perm = 0o4000
	PermISGID Perm = 0o2000
	PermISVTX Perm = 0o1000

	// PermMask covers every bit chmod can set.
	PermMask Perm = 0o7777
)

// Append renders the permission onto b in the octal form used by trace
// files.
func (p Perm) Append(b []byte) []byte {
	return strconv.AppendUint(append(b, "0o"...), uint64(uint32(p)), 8)
}

// String is Append's rendering as a string.
func (p Perm) String() string { return string(p.Append(nil)) }

// AccessRequest names the kind of access a permission check is for.
type AccessRequest int

// Access kinds checked by the permissions trait.
const (
	AccessRead AccessRequest = iota
	AccessWrite
	AccessExec
)

// Mask returns the permission bits corresponding to the request for the
// given ownership class (0 = owner, 1 = group, 2 = other).
func (a AccessRequest) Mask(class int) Perm {
	var base Perm
	switch a {
	case AccessRead:
		base = PermIROTH
	case AccessWrite:
		base = PermIWOTH
	case AccessExec:
		base = PermIXOTH
	}
	shift := uint((2 - class) * 3)
	return base << shift
}

// FileKind distinguishes the kinds of object a path can resolve to.
type FileKind int

// Kinds of file-system object within the model's scope. POSIX has more
// (FIFOs, devices, sockets) but they are outside the paper's scope (§1.2).
const (
	KindFile FileKind = iota
	KindDir
	KindSymlink
)

// String returns the trace name of the kind (matching stat output fields).
func (k FileKind) String() string {
	switch k {
	case KindFile:
		return "S_IFREG"
	case KindDir:
		return "S_IFDIR"
	case KindSymlink:
		return "S_IFLNK"
	}
	return "S_IF?"
}

// Stats is the subset of struct stat the model exposes through stat, lstat
// and fstat.
type Stats struct {
	Kind  FileKind
	Perm  Perm
	Size  int64
	Nlink int
	Uid   Uid
	Gid   Gid
}

// Append renders stats in trace syntax onto b, e.g.
// "{ st_kind=S_IFREG; st_perm=0o644; st_size=3; st_nlink=1; st_uid=0; st_gid=0 }".
func (s Stats) Append(b []byte) []byte {
	b = append(append(b, "{ st_kind="...), s.Kind.String()...)
	b = s.Perm.Append(append(b, "; st_perm="...))
	b = strconv.AppendInt(append(b, "; st_size="...), s.Size, 10)
	b = strconv.AppendInt(append(b, "; st_nlink="...), int64(s.Nlink), 10)
	b = strconv.AppendInt(append(b, "; st_uid="...), int64(s.Uid), 10)
	b = strconv.AppendInt(append(b, "; st_gid="...), int64(s.Gid), 10)
	return append(b, " }"...)
}

// String is Append's rendering as a string.
func (s Stats) String() string { return string(s.Append(nil)) }
