// Package sibylfs is a Go reproduction of SibylFS (SOSP 2015): a rigorous,
// executable specification of POSIX and real-world file-system behaviour
// usable as a test oracle, together with a generated test suite, a test
// executor, implementations under test, and result analysis.
//
// The front door is the Session facade: one option-configured handle
// whose context-aware methods cover the Fig 1 flow end to end —
//
//	s := sibylfs.New(sibylfs.WithSpec(sibylfs.DefaultSpec()))
//	suite, _ := s.Generate(ctx)                             // test scripts
//	traces, _ := s.Execute(ctx, suite, impl)                // drive an FS
//	results, _ := s.Check(ctx, traces)                      // oracle
//
// plus Run (the sharded, cache-backed pipeline), Survey and Fuzz; see
// Session.
//
// The package re-exports the model's vocabulary via type aliases so
// downstream users never import internal packages directly.
package sibylfs

import (
	"repro/internal/checker"
	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// Core vocabulary, re-exported.
type (
	// Spec selects the model variant and trait mix (§4).
	Spec = types.Spec
	// Platform is one of POSIX, Linux, OS X, FreeBSD.
	Platform = types.Platform
	// Errno is an abstract POSIX error number.
	Errno = types.Errno
	// Script is a parsed test script (Fig 2).
	Script = trace.Script
	// Trace is an observed execution (Fig 3).
	Trace = trace.Trace
	// CheckResult is the oracle's verdict on one trace (Fig 4).
	CheckResult = checker.Result
	// StepError is one non-conformant step with its diagnosis.
	StepError = checker.StepError
	// FS is a file system under test.
	FS = fsimpl.FS
	// Factory creates fresh FS instances, one per script.
	Factory = fsimpl.Factory
	// Profile configures the in-memory implementation's behaviour.
	Profile = fsimpl.Profile
	// ConcurrentOptions configure the concurrent executor (seeded
	// deterministic scheduler vs free-running goroutines).
	ConcurrentOptions = exec.ConcurrentOptions
)

// Platform constants.
const (
	POSIX   = types.PlatformPOSIX
	Linux   = types.PlatformLinux
	OSX     = types.PlatformOSX
	FreeBSD = types.PlatformFreeBSD
)

// DefaultSpec is the Linux variant with permissions, root initial process.
func DefaultSpec() Spec { return types.DefaultSpec() }

// SpecFor returns the spec variant for a platform with the standard traits.
func SpecFor(p Platform) Spec {
	return Spec{Platform: p, Permissions: true, RootUser: true}
}

// ParsePlatformName maps a configuration-file or CLI platform name
// ("posix", "linux", "mac_os_x"/"osx", "freebsd") to a Platform.
func ParsePlatformName(s string) (Platform, bool) { return types.ParsePlatform(s) }

// SuiteStats reports the number of scripts per command group.
func SuiteStats(scripts []*Script) map[string]int {
	s := testgen.Suite{Scripts: scripts}
	return s.Stats()
}

// ParseScript parses script concrete syntax.
func ParseScript(text string) (*Script, error) { return trace.ParseScript(text) }

// ParseTrace parses trace concrete syntax.
func ParseTrace(text string) (*Trace, error) { return trace.ParseTrace(text) }

// RenderChecked produces the checked-trace text of Fig 4.
func RenderChecked(t *Trace, r CheckResult) string {
	return checker.RenderChecked(t, r)
}

// MemFS returns a factory for the in-memory implementation with a profile.
func MemFS(p Profile) Factory { return fsimpl.MemFactory(p) }

// HostFS returns a factory driving the real file system in a temp-dir jail.
func HostFS(name string) Factory { return fsimpl.HostFactory(name) }

// SpecFS returns a factory for the determinized model (a reference
// implementation, as the paper's FUSE mounts of SibylFS).
func SpecFS(name string, spec Spec) Factory { return fsimpl.SpecFactory(name, spec) }

// LinuxProfile, PosixProfile, OSXProfile and FreeBSDProfile are conforming
// baselines; see fsimpl.SurveyProfiles for the defect-injected variants.
func LinuxProfile(name string) Profile   { return fsimpl.LinuxProfile(name) }
func PosixProfile(name string) Profile   { return fsimpl.PosixProfile(name) }
func OSXProfile(name string) Profile     { return fsimpl.OSXProfile(name) }
func FreeBSDProfile(name string) Profile { return fsimpl.FreeBSDProfile(name) }

// SurveyProfiles returns the defect catalogue of §7.3 as memfs profiles.
func SurveyProfiles() []Profile { return fsimpl.SurveyProfiles() }
