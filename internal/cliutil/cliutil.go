// Package cliutil holds the helpers the cmd/ tools share: resolving the
// -fs flag to an implementation under test and loading script
// directories. Keeping them here means a new profile scheme or script
// format touches one place, not one copy per tool.
package cliutil

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	sibylfs "repro"
	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

// FSChoice is a resolved -fs argument.
type FSChoice struct {
	Factory fsimpl.Factory
	// Platform is the implementation's native platform (the default model
	// variant to check it against).
	Platform types.Platform
	// Serial means scripts must execute one at a time (hostfs: the
	// kernel's umask is process-global).
	Serial bool
	// HostOnly restricts the run to host-safe scripts.
	HostOnly bool
	// Fallback is true when the name matched no survey profile and a
	// conforming Linux memfs was substituted under it — worth a warning
	// when the caller's purpose is finding defects.
	Fallback bool
}

// PickFS resolves a -fs argument: "host" (the real kernel in a temp-dir
// jail), "spec:PLATFORM" (the determinized model), a memfs
// survey-profile name, or any other name as a conforming Linux memfs
// configuration (Fallback set). ok is false only for an unparsable
// "spec:" platform.
func PickFS(name string) (FSChoice, bool) {
	switch {
	case name == "host":
		return FSChoice{
			Factory:  fsimpl.HostFactory("host"),
			Platform: types.PlatformLinux,
			Serial:   true,
			HostOnly: true,
		}, true
	case strings.HasPrefix(name, "spec:"):
		pl, k := types.ParsePlatform(strings.TrimPrefix(name, "spec:"))
		if !k {
			return FSChoice{}, false
		}
		spec := types.Spec{Platform: pl, Permissions: true, RootUser: true}
		return FSChoice{Factory: fsimpl.SpecFactory(name, spec), Platform: pl}, true
	default:
		for _, p := range fsimpl.SurveyProfiles() {
			if p.Name == name {
				return FSChoice{Factory: fsimpl.MemFactory(p), Platform: p.Platform}, true
			}
		}
		return FSChoice{
			Factory:  fsimpl.MemFactory(fsimpl.LinuxProfile(name)),
			Platform: types.PlatformLinux,
			Fallback: true,
		}, true
	}
}

// Universe names for SessionScripts.
const (
	UniverseSequential = "sequential"
	UniverseConcurrent = "concurrent"
	UniverseCrash      = "crash"
)

// Universe maps a tool's -concurrent/-crash flags to the universe name,
// rejecting the combination (crash scripts are sequential-executor only).
func Universe(concurrent, crash bool) (string, error) {
	switch {
	case concurrent && crash:
		return "", fmt.Errorf("-concurrent and -crash are mutually exclusive: crash scripts are sequential-executor only")
	case concurrent:
		return UniverseConcurrent, nil
	case crash:
		return UniverseCrash, nil
	default:
		return UniverseSequential, nil
	}
}

// PickCrashFS resolves a -fs argument for a crash-universe run: the same
// names as PickFS, but the resulting implementation simulates persistence
// (memfs: the crash profile; spec:PLATFORM: a Spec.Crash model). "host"
// is rejected — we cannot power-cycle the machine the tests run on.
func PickCrashFS(name string) (FSChoice, error) {
	switch {
	case name == "host":
		return FSChoice{}, fmt.Errorf("-fs host does not support crash simulation (cannot power-cycle the host)")
	case strings.HasPrefix(name, "spec:"):
		pl, k := types.ParsePlatform(strings.TrimPrefix(name, "spec:"))
		if !k {
			return FSChoice{}, fmt.Errorf("unknown platform %q", strings.TrimPrefix(name, "spec:"))
		}
		spec := types.Spec{Platform: pl, Permissions: true, RootUser: true, Crash: true}
		return FSChoice{Factory: fsimpl.SpecFactory(name, spec), Platform: pl}, nil
	default:
		c, _ := PickFS(name)
		for _, p := range fsimpl.SurveyProfiles() {
			if p.Name == name {
				p.Crash = true
				return FSChoice{Factory: fsimpl.MemFactory(p), Platform: p.Platform}, nil
			}
		}
		prof := fsimpl.LinuxProfile(name)
		prof.Crash = true
		c.Factory = fsimpl.MemFactory(prof)
		return c, nil
	}
}

// SessionScripts resolves a tool's -i flag to its script list: a
// directory of .script files when dir is given, otherwise the named
// generated universe, generated through the session (so ctx cancels it).
func SessionScripts(ctx context.Context, s *sibylfs.Session, dir string, universe string) ([]*trace.Script, error) {
	if dir != "" {
		return LoadScripts(dir)
	}
	switch universe {
	case UniverseConcurrent:
		return s.GenerateConcurrent(ctx)
	case UniverseCrash:
		return s.GenerateCrash(ctx)
	default:
		return s.Generate(ctx)
	}
}

// LoadScripts parses every .script file under dir (the file name becomes
// the script name when the header carries none).
func LoadScripts(dir string) ([]*trace.Script, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*trace.Script
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".script") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		s, err := trace.ParseScript(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if s.Name == "" {
			s.Name = strings.TrimSuffix(e.Name(), ".script")
		}
		out = append(out, s)
	}
	return out, nil
}
