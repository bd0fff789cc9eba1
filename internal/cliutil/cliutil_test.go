package cliutil

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sibylfs "repro"
	"repro/internal/fsimpl"
	"repro/internal/types"
)

// TestResolve runs every -fs form in every universe and checks what the
// target carries: the model variant (native platform, Crash exactly in
// the crash universe), the execution constraints, and an implementation
// that can power-cycle exactly in the crash universe.
func TestResolve(t *testing.T) {
	rows := []struct {
		fs       string
		platform types.Platform
		host     bool // Serial and HostOnly
		fallback bool
		wantErr  bool
	}{
		{fs: "host", platform: types.PlatformLinux, host: true},
		{fs: "spec:linux", platform: types.PlatformLinux},
		{fs: "spec:bogus", wantErr: true},
		{fs: "hfsplus_osx_10.9.5", platform: types.PlatformOSX},
		{fs: "no_such_profile", platform: types.PlatformLinux, fallback: true},
	}
	for _, row := range rows {
		for _, universe := range []string{UniverseSequential, UniverseConcurrent, UniverseCrash} {
			crash := universe == UniverseCrash
			got, err := Resolve(row.fs, "", universe, false)
			if row.wantErr || (row.host && crash) {
				if err == nil {
					t.Errorf("Resolve(%q, %s): no error", row.fs, universe)
				}
				continue
			}
			if err != nil {
				t.Errorf("Resolve(%q, %s): %v", row.fs, universe, err)
				continue
			}
			want := types.Spec{Platform: row.platform, Permissions: true, RootUser: true, Crash: crash}
			if got.Spec != want {
				t.Errorf("Resolve(%q, %s).Spec = %+v, want %+v", row.fs, universe, got.Spec, want)
			}
			if got.Universe != universe {
				t.Errorf("Resolve(%q, %s).Universe = %q", row.fs, universe, got.Universe)
			}
			if got.Serial != row.host || got.HostOnly != row.host || got.Fallback != row.fallback {
				t.Errorf("Resolve(%q, %s): Serial %v HostOnly %v Fallback %v, want %v %v %v",
					row.fs, universe, got.Serial, got.HostOnly, got.Fallback, row.host, row.host, row.fallback)
			}
			if row.host {
				continue // a host instance is a jail on the real kernel
			}
			fs, err := got.Factory()
			if err != nil {
				t.Fatal(err)
			}
			cfs, ok := fs.(fsimpl.CrashFS)
			if canCrash := ok && cfs.Crash(0) == nil; canCrash != crash {
				t.Errorf("Resolve(%q, %s): implementation can power-cycle: %v, want %v", row.fs, universe, canCrash, crash)
			}
			fs.Close()
		}
	}
}

// TestResolveOptions covers the arguments besides -fs: a platform
// overrides the native one, noPerms drops the permissions trait, an
// empty universe is the sequential one, and the bad values are errors.
func TestResolveOptions(t *testing.T) {
	got, err := Resolve("hfsplus_osx_10.9.5", "posix", "", true)
	if err != nil {
		t.Fatal(err)
	}
	want := types.Spec{Platform: types.PlatformPOSIX, RootUser: true}
	if got.Spec != want || got.Universe != UniverseSequential {
		t.Errorf("got spec %+v universe %q, want %+v %q", got.Spec, got.Universe, want, UniverseSequential)
	}
	for _, args := range [][3]string{
		{"ext4", "plan9", UniverseSequential},
		{"ext4", "", "galactic"},
		{"", "", UniverseSequential},
	} {
		if _, err := Resolve(args[0], args[1], args[2], false); err == nil {
			t.Errorf("Resolve(%q, %q, %q): no error", args[0], args[1], args[2])
		}
	}
	if _, err := Universe(true, true); err == nil {
		t.Error("Universe(concurrent, crash): no error")
	}
}

// TestResolveSpecNoPerms: a spec: implementation or a memfs profile
// resolved with noPerms runs without permission checks, so the model
// variant the target is checked against accepts every trace it records,
// in the sequential and the crash universe; and its cache identity is
// not the one of the implementation with permission checks.
func TestResolveSpecNoPerms(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		fs, universe string
		sample       int
	}{
		{"spec:linux", UniverseSequential, 50},
		{"spec:linux", UniverseCrash, 1},
		{"ext4", UniverseSequential, 50},
	} {
		fs, universe, sample := row.fs, row.universe, row.sample
		target, err := Resolve(fs, "", universe, true)
		if err != nil {
			t.Fatal(err)
		}
		if target.FSName == fs {
			t.Errorf("%s %s: FSName %q is the identity of %s with permission checks", fs, universe, target.FSName, fs)
		}
		s := sibylfs.New(sibylfs.WithSpec(target.Spec), sibylfs.WithCoverage(sibylfs.NewCoverageRegistry()))
		scripts, err := target.Scripts(ctx, s, "", sample)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := s.Execute(ctx, scripts, target.Factory)
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.Check(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for _, r := range results {
			if !r.Accepted {
				if rejected++; rejected <= 3 {
					t.Errorf("%s %s: %s rejected", fs, universe, r.Name)
				}
			}
		}
		if rejected > 0 {
			t.Errorf("%s %s: %d of %d traces rejected, want none", fs, universe, rejected, len(results))
		}
	}
}

// TestTargetScripts: without a directory the target's universe is
// generated, a host target keeps only host-safe scripts, and sample
// keeps every nth.
func TestTargetScripts(t *testing.T) {
	ctx := context.Background()
	s := sibylfs.New()
	crash, err := Resolve("ext4", "", UniverseCrash, false)
	if err != nil {
		t.Fatal(err)
	}
	all, err := crash.Scripts(ctx, s, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 40 || !strings.HasPrefix(all[0].Name, "crash___") {
		t.Fatalf("crash universe: %d scripts, first %q", len(all), all[0].Name)
	}
	sampled, err := crash.Scripts(ctx, s, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) != 14 || sampled[1].Name != all[3].Name {
		t.Errorf("-sample 3 kept %d scripts, want 14, every third", len(sampled))
	}
	host, err := Resolve("host", "", UniverseConcurrent, false)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := s.GenerateConcurrent(ctx)
	if err != nil {
		t.Fatal(err)
	}
	safe, err := host.Scripts(ctx, s, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := sibylfs.FilterHostSafe(conc); len(safe) != len(want) || len(safe) == len(conc) {
		t.Errorf("host target kept %d of %d concurrent scripts, want the %d host-safe ones", len(safe), len(conc), len(want))
	}
}

// TestLoadDir: only files with the suffix load, in directory order, and
// a file without a header name is named after the file.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"b.trace":   "@type trace\n1: mkdir \"/d\" 0o755\n1: RV_none\n",
		"a.trace":   "@type trace\n# Test named\n1: mkdir \"/d\" 0o755\n1: EEXIST\n",
		"c.script":  "@type script\n1: mkdir \"/d\" 0o755\n",
		"notes.txt": "not a trace",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	traces, err := LoadTraces(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].Name != "named" || traces[1].Name != "b" {
		t.Fatalf("LoadTraces: %d traces %v", len(traces), traces)
	}
	scripts, err := LoadScripts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) != 1 || scripts[0].Name != "c" {
		t.Fatalf("LoadScripts: %d scripts %v", len(scripts), scripts)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.trace"), []byte("@type trace\n1: frobnicate\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTraces(dir); err == nil || !strings.HasPrefix(err.Error(), "bad.trace: ") {
		t.Errorf("a bad trace gave %v, want an error naming its file", err)
	}
}
