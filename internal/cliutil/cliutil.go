// Package cliutil holds the helpers the cmd/ tools share: resolving the
// -fs, platform and universe flags to one run target and loading script
// and trace directories. Keeping them here means a new profile scheme or
// script format touches one place, not one copy per tool.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	sibylfs "repro"
	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

// Universe names, as Target.Universe and sfs-serve job specs carry them.
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

// Target is a resolved run: the implementation under test, the model
// variant its traces are checked against, and the universe of scripts
// it is driven with.
type Target struct {
	Factory fsimpl.Factory
	// FSName is the implementation's cache identity (the pipeline's
	// FSName): fs itself, except that an implementation built without
	// permission checks is named apart from the one built with them.
	FSName string
	// Spec is the model variant: the platform asked for, or the
	// implementation's native one, with Crash set exactly in the crash
	// universe.
	Spec types.Spec
	// Universe is one of UniverseSequential, UniverseConcurrent and
	// UniverseCrash.
	Universe string
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

// Resolve is the one place a tool's -fs, platform and universe become a
// run target. fs is "host" (the real kernel in a temp-dir jail),
// "spec:PLATFORM" (the determinized model), a memfs survey-profile name,
// or any other name as a conforming Linux memfs configuration (Fallback
// set). An empty platform means the implementation's native one, an
// empty universe the sequential one. In the crash universe the
// implementation simulates persistence (memfs: the crash profile;
// spec:PLATFORM: a Spec.Crash model), and "host" is an error — the
// machine the tests run on cannot be power-cycled. noPerms drops the
// permissions trait from the model variant, and permission checks from
// a spec:PLATFORM or memfs implementation too, so the model still
// accepts what they do.
func Resolve(fs, platform, universe string, noPerms bool) (Target, error) {
	t := Target{FSName: fs, Universe: universe}
	switch universe {
	case "":
		t.Universe = UniverseSequential
	case UniverseSequential, UniverseConcurrent, UniverseCrash:
	default:
		return Target{}, fmt.Errorf("unknown universe %q (want sequential, concurrent or crash)", universe)
	}
	crash := t.Universe == UniverseCrash
	native := types.PlatformLinux
	switch {
	case fs == "":
		return Target{}, errors.New("fs is required")
	case fs == "host":
		if crash {
			return Target{}, errors.New("-fs host does not support crash simulation (cannot power-cycle the host)")
		}
		t.Factory, t.Serial, t.HostOnly = fsimpl.HostFactory("host"), true, true
	case strings.HasPrefix(fs, "spec:"):
		pl, ok := types.ParsePlatform(strings.TrimPrefix(fs, "spec:"))
		if !ok {
			return Target{}, fmt.Errorf("unknown platform %q", strings.TrimPrefix(fs, "spec:"))
		}
		native = pl
		t.Factory = fsimpl.SpecFactory(fs, types.Spec{Platform: pl, Permissions: !noPerms, RootUser: true, Crash: crash})
	default:
		prof, found := fsimpl.LinuxProfile(fs), false
		for _, p := range fsimpl.SurveyProfiles() {
			if p.Name == fs {
				prof, found = p, true
				break
			}
		}
		prof.Crash = crash
		prof.CheckPerms = prof.CheckPerms && !noPerms
		native, t.Fallback = prof.Platform, !found
		t.Factory = fsimpl.MemFactory(prof)
	}
	if noPerms && fs != "host" {
		// A new identity: caches filled while the implementation ignored
		// noPerms must not serve its records.
		t.FSName = fs + " noperms"
	}
	pl := native
	if platform != "" {
		var ok bool
		if pl, ok = types.ParsePlatform(platform); !ok {
			return Target{}, fmt.Errorf("unknown platform %q", platform)
		}
	}
	t.Spec = sibylfs.SpecFor(pl)
	t.Spec.Permissions = !noPerms
	t.Spec.Crash = crash // part of the pipeline cache key (SpecHash)
	return t, nil
}

// Scripts is the run's script list: the .script files in dir when dir is
// given (a tool's -i flag), otherwise the target's generated universe,
// generated through s (so ctx cancels it). A host target keeps only the
// host-safe scripts; sample > 1 keeps every sample-th.
func (t Target) Scripts(ctx context.Context, s *sibylfs.Session, dir string, sample int) ([]*trace.Script, error) {
	var scripts []*trace.Script
	var err error
	switch {
	case dir != "":
		scripts, err = LoadScripts(dir)
	case t.Universe == UniverseConcurrent:
		scripts, err = s.GenerateConcurrent(ctx)
	case t.Universe == UniverseCrash:
		scripts, err = s.GenerateCrash(ctx)
	default:
		scripts, err = s.Generate(ctx)
	}
	if err != nil {
		return nil, err
	}
	if t.HostOnly {
		scripts = sibylfs.FilterHostSafe(scripts)
	}
	return Sample(scripts, sample), nil
}

// Sample keeps every nth script, starting with the first (n ≤ 1 keeps
// them all).
func Sample(scripts []*trace.Script, n int) []*trace.Script {
	if n <= 1 {
		return scripts
	}
	var sel []*trace.Script
	for i := 0; i < len(scripts); i += n {
		sel = append(sel, scripts[i])
	}
	return sel
}

// LoadScripts parses every .script file in dir (the file name becomes
// the script name when the header carries none).
func LoadScripts(dir string) ([]*trace.Script, error) {
	return loadDir(dir, ".script", trace.ParseScript, func(s *trace.Script) *string { return &s.Name })
}

// LoadTraces parses every .trace file in dir (the file name becomes the
// trace name when the header carries none).
func LoadTraces(dir string) ([]*trace.Trace, error) {
	return loadDir(dir, ".trace", trace.ParseTrace, func(t *trace.Trace) *string { return &t.Name })
}

// loadDir parses every file in dir whose name ends in suffix, in
// directory order; name points at a parsed value's name, which an empty
// header leaves to the file name without the suffix.
func loadDir[T any](dir, suffix string, parse func(string) (T, error), name func(T) *string) ([]T, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []T
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		v, err := parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if n := name(v); *n == "" {
			*n = strings.TrimSuffix(e.Name(), suffix)
		}
		out = append(out, v)
	}
	return out, nil
}
