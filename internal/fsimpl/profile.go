package fsimpl

import "repro/internal/types"

// Profile configures memfs's behaviour: which platform's conventions it
// follows and which of the paper's catalogued defects (§7.3) are injected.
// A zero-defect Linux profile behaves like ext4 on Linux 3.19 with glibc.
type Profile struct {
	Name     string
	Platform types.Platform

	// CheckPerms enables permission enforcement (on for local file
	// systems; SSHFS with plain allow_other skips it — §7.3.4).
	CheckPerms bool

	// Crash enables the persistence simulation: memfs tracks a durable
	// tree image plus a log of unsynced effects, honours fsync/sync and
	// O_SYNC as flush barriers, and implements CrashFS. Off by default —
	// the log costs a tree snapshot per mutating call.
	Crash bool

	// ---- Platform conventions (§7.3.3) ----

	// UnlinkDirErrno is returned by unlink on a directory: EISDIR on Linux
	// (LSB), EPERM on POSIX/OS X/FreeBSD.
	UnlinkDirErrno types.Errno
	// OAppendPwriteAppends: pwrite on an O_APPEND descriptor ignores the
	// offset and appends (the long-standing Linux convention).
	OAppendPwriteAppends bool

	// ---- Injected defects (§7.3.2, §7.3.4, §7.3.5) ----

	// ChmodUnsupported: every chmod fails EOPNOTSUPP (HFS+ on Ubuntu
	// Trusty Linux 3.13).
	ChmodUnsupported bool
	// LinkToSymlinkEPERM: link with a symlink source fails EPERM (HFS+ on
	// Linux; a portability compromise for removable volumes).
	LinkToSymlinkEPERM bool
	// FlatDirNlink: directories always report st_nlink = 1 (Btrfs; also
	// SSHFS, which additionally reports regular-file links lazily).
	FlatDirNlink bool
	// OAppendBroken: O_APPEND descriptors do not seek to the end before
	// write/pwrite (OpenZFS 0.6.3 on Trusty), silently overwriting data.
	OAppendBroken bool
	// PwriteNegativeUnderflow: a negative pwrite offset is interpreted as
	// a huge unsigned value (the OS X VFS integer underflow, §7.3.4); the
	// process receives SIGXFSZ, observed in the trace as EFBIG rather
	// than the POSIX-required EINVAL.
	PwriteNegativeUnderflow bool
	// RenameLinkCountLeak: rename over an existing hard link fails to
	// decrement the replaced file's link count, leaking storage
	// (posixovl/VFAT 1.2, §7.3.5). Combined with CapacityBlocks the leak
	// eventually fills the volume even though it looks empty.
	RenameLinkCountLeak bool
	// CapacityBlocks bounds total file bytes (in 4096-byte blocks);
	// 0 = unlimited. Exhaustion surfaces as ENOENT from open(O_CREAT)
	// (the observed posixovl failure mode on Linux 3.19) and ENOSPC from
	// write.
	CapacityBlocks int
	// SpinOnDisconnectedCreate: open(O_CREAT) with the cwd unlinked spins
	// the process unkillably (OpenZFS 1.3.0 on OS X 10.9.5, Fig 8). The
	// harness's watchdog observes the hang and records EINTR (a value the
	// model never allows, so the oracle flags the step).
	SpinOnDisconnectedCreate bool
	// FreeBSDSymlinkReplaceBug: open(O_CREAT|O_DIRECTORY|O_EXCL) on a
	// symlink returns ENOTDIR *and* replaces the symlink with a new file,
	// violating POSIX's errors-don't-change-state invariant (§7.3.2).
	FreeBSDSymlinkReplaceBug bool
	// UmaskORExtra is OR-ed into every process umask (SSHFS without the
	// umask mount option ORs 0022 regardless of the process umask).
	UmaskORExtra types.Perm
	// UmaskForce, when non-nil, replaces the process umask entirely
	// (SSHFS with umask=0000 ignores the process umask).
	UmaskForce *types.Perm
	// CreateOwnerRoot forces created files to be owned by root (SSHFS's
	// unconfigurable default creation ownership = mount owner).
	CreateOwnerRoot bool
	// SymlinkTrailingReadsLink: readlink on "s/" where s is a symlink to
	// a symlink returns the inner symlink's contents instead of EINVAL
	// (the OS X behaviour described in §7.3.2).
	SymlinkTrailingReadsLink bool
}

// LinuxProfile is the conforming baseline: ext4-like behaviour on Linux.
func LinuxProfile(name string) Profile {
	return Profile{
		Name:                 name,
		Platform:             types.PlatformLinux,
		CheckPerms:           true,
		UnlinkDirErrno:       types.EISDIR,
		OAppendPwriteAppends: true,
	}
}

// PosixProfile behaves like a strictly POSIX-conforming implementation.
func PosixProfile(name string) Profile {
	return Profile{
		Name:           name,
		Platform:       types.PlatformPOSIX,
		CheckPerms:     true,
		UnlinkDirErrno: types.EPERM,
	}
}

// OSXProfile behaves like HFS+ on OS X 10.9.
func OSXProfile(name string) Profile {
	return Profile{
		Name:                     name,
		Platform:                 types.PlatformOSX,
		CheckPerms:               true,
		UnlinkDirErrno:           types.EPERM,
		PwriteNegativeUnderflow:  true, // the §7.3.4 VFS defect is in the OS X VFS layer
		SymlinkTrailingReadsLink: true,
	}
}

// FreeBSDProfile behaves like ufs/tmpfs on FreeBSD 10.
func FreeBSDProfile(name string) Profile {
	return Profile{
		Name:                     name,
		Platform:                 types.PlatformFreeBSD,
		CheckPerms:               true,
		UnlinkDirErrno:           types.EPERM,
		FreeBSDSymlinkReplaceBug: true,
	}
}

// SurveyProfiles returns the named memfs configurations used to regenerate
// the paper's survey (§7.3): conforming baselines per platform plus one
// profile per catalogued defect.
func SurveyProfiles() []Profile {
	ext4 := LinuxProfile("ext4")

	btrfs := LinuxProfile("btrfs")
	btrfs.FlatDirNlink = true

	hfsLinux := LinuxProfile("hfsplus_linux_trusty")
	hfsLinux.ChmodUnsupported = true
	hfsLinux.LinkToSymlinkEPERM = true

	zfsTrusty := LinuxProfile("openzfs_0.6.3_trusty")
	zfsTrusty.OAppendBroken = true

	posixovl := LinuxProfile("posixovl_vfat_1.2")
	posixovl.RenameLinkCountLeak = true
	posixovl.CapacityBlocks = 64

	sshfsAllowOther := LinuxProfile("sshfs_tmpfs_allow_other")
	sshfsAllowOther.CheckPerms = false
	sshfsAllowOther.CreateOwnerRoot = true
	sshfsAllowOther.UmaskORExtra = 0o022
	sshfsAllowOther.FlatDirNlink = true

	sshfsDefPerm := LinuxProfile("sshfs_tmpfs_default_permissions")
	sshfsDefPerm.CreateOwnerRoot = true
	sshfsDefPerm.UmaskORExtra = 0o022
	sshfsDefPerm.FlatDirNlink = true

	zeroUmask := types.Perm(0)
	sshfsUmask0 := LinuxProfile("sshfs_tmpfs_umask_0000")
	sshfsUmask0.CreateOwnerRoot = true
	sshfsUmask0.UmaskForce = &zeroUmask
	sshfsUmask0.FlatDirNlink = true

	hfsOSX := OSXProfile("hfsplus_osx_10.9.5")

	zfsOSX := OSXProfile("openzfs_1.3.0_osx")
	zfsOSX.SpinOnDisconnectedCreate = true

	ufs := FreeBSDProfile("ufs_freebsd_10")

	tmpfsBSD := FreeBSDProfile("tmpfs_freebsd_10")

	posix := PosixProfile("posix_reference")

	return []Profile{
		ext4, btrfs, hfsLinux, zfsTrusty, posixovl,
		sshfsAllowOther, sshfsDefPerm, sshfsUmask0,
		hfsOSX, zfsOSX, ufs, tmpfsBSD, posix,
	}
}
