package sibylfs

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fsimpl"
	"repro/internal/types"
)

// Config is one survey configuration: an implementation under test paired
// with the model variant its traces are checked against.
type Config struct {
	Name    string
	Factory Factory
	Spec    Spec
	// Serial forces single-worker execution (hostfs's process-global
	// umask).
	Serial bool
	// SkipUserScripts excludes scripts that switch credentials
	// (hostfs runs everything as the harness user).
	SkipUserScripts bool
}

// Configurations returns the survey matrix: conforming baselines for every
// platform, one profile per catalogued §7.3 defect, several conforming
// Linux file systems (distinct configurations, behaviourally alike — as
// ext2/ext3/ext4 are in the paper), the determinized model, and the real
// host kernel; most are checked both against their native variant and
// against strict POSIX, mirroring the paper's >40 system configurations.
func Configurations() []Config {
	var out []Config
	add := func(c Config) { out = append(out, c) }

	profiles := fsimpl.SurveyProfiles()
	// Conforming Linux file systems beyond ext4: distinct configurations
	// sharing the conforming profile.
	for _, alias := range []string{"ext2", "ext3", "tmpfs", "xfs", "f2fs", "nilfs2", "minix"} {
		profiles = append(profiles, fsimpl.LinuxProfile(alias))
	}
	for _, p := range profiles {
		p := p
		native := SpecFor(p.Platform)
		add(Config{
			Name:    fmt.Sprintf("%s vs %s", p.Name, native.Platform),
			Factory: fsimpl.MemFactory(p),
			Spec:    native,
		})
		if p.Platform != types.PlatformPOSIX {
			add(Config{
				Name:    fmt.Sprintf("%s vs posix", p.Name),
				Factory: fsimpl.MemFactory(p),
				Spec:    SpecFor(POSIX),
			})
		}
	}
	for _, pl := range []Platform{POSIX, Linux, OSX, FreeBSD} {
		pl := pl
		name := fmt.Sprintf("specfs_%s", pl)
		add(Config{
			Name:    fmt.Sprintf("%s vs %s", name, pl),
			Factory: fsimpl.SpecFactory(name, SpecFor(pl)),
			Spec:    SpecFor(pl),
		})
	}
	add(Config{
		Name:            "hostfs vs linux",
		Factory:         fsimpl.HostFactory("hostfs"),
		Spec:            SpecFor(Linux),
		Serial:          true,
		SkipUserScripts: true,
	})
	add(Config{
		Name:            "hostfs vs posix",
		Factory:         fsimpl.HostFactory("hostfs"),
		Spec:            SpecFor(POSIX),
		Serial:          true,
		SkipUserScripts: true,
	})
	return out
}

// SurveyResult is the outcome of running one configuration.
type SurveyResult struct {
	Config  Config
	Summary *analysis.RunSummary
}

// FilterHostSafe drops scripts that switch credentials or belong to the
// multi-user permission group.
func FilterHostSafe(scripts []*Script) []*Script {
	var out []*Script
	for _, s := range scripts {
		if hostSafeScript(s) {
			out = append(out, s)
		}
	}
	return out
}

func hostSafeScript(s *Script) bool {
	if GroupOfName(s.Name) == "perm" {
		return false
	}
	for _, st := range s.Steps {
		switch l := st.Label.(type) {
		case types.CreateLabel:
			if l.Uid != 0 {
				return false
			}
		case types.CallLabel:
			// Absolute symlink targets would escape the temp-dir jail
			// (a real chroot, as the paper used, confines them).
			if sl, ok := l.Cmd.(types.Symlink); ok && len(sl.Target) > 0 && sl.Target[0] == '/' {
				return false
			}
		}
	}
	return true
}
