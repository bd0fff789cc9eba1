package sibylfs

// The experiments: one test per table/figure of the paper's evaluation
// (§6.1, §7.1, §7.2, §7.3, Fig 7, Fig 8). They assert the *shape* of each
// result. The heavy whole-suite runs are skipped with -short.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// TestTable61SuiteSize — §6.1: the suite has the paper's order of 21 070
// scripts, with rename dominating two-path testing (≈2 500 in the paper
// vs OpenGroup's ≈50 rename tests).
func TestTable61SuiteSize(t *testing.T) {
	suite := generate(t, (*Session).Generate)
	if len(suite) < 20000 {
		t.Fatalf("suite = %d scripts, want ≥ 20 000 (paper: 21 070)", len(suite))
	}
	stats := SuiteStats(suite)
	if stats["rename"] < 500 {
		t.Errorf("rename = %d, want ≥ 500 (OpenGroup has ≈50)", stats["rename"])
	}
	if stats["open"] < 5000 {
		t.Errorf("open = %d, want ≥ 5 000 (largest flag matrix)", stats["open"])
	}
}

// TestTable72Acceptance — §7.2 "Trace acceptance": on the conforming Linux
// implementation, every generated trace is accepted by the Linux variant
// (the paper reports all but 9 of 21 070, the 9 being chroot-jail
// artifacts that our in-memory target does not suffer). Also measures
// model coverage (§7.2: 98%).
func TestTable72Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite run")
	}
	ctx := context.Background()
	reg := NewCoverageRegistry()
	session := New(WithCoverage(reg))
	suite := generate(t, (*Session).Generate)
	traces, err := session.Execute(ctx, suite, MemFS(LinuxProfile("ext4")))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results, err := New(WithWorkers(4), WithCoverage(reg)).Check(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	bad := 0
	for i, r := range results {
		if !r.Accepted {
			bad++
			if bad <= 3 {
				t.Logf("rejected:\n%s", RenderChecked(traces[i], r))
			}
		}
	}
	if bad != 0 {
		t.Errorf("%d/%d traces rejected (paper: 9/21070, all jail artifacts)", bad, len(results))
	}
	rate := float64(len(traces)) / elapsed.Seconds()
	t.Logf("§7.1: checked %d traces in %v with 4 workers = %.0f traces/s (paper: 21070 in 79s = 266/s)",
		len(traces), elapsed.Round(time.Millisecond), rate)
	if rate < 100 {
		t.Errorf("checking rate %.0f traces/s below the paper's 266/s shape", rate)
	}

	// §7.2 coverage: the suite must exercise ≥95% of the model's coverage
	// points (paper: 98% of model lines).
	hit, total := session.Coverage()
	pct := 100 * float64(hit) / float64(total)
	t.Logf("§7.2: model coverage %d/%d points = %.1f%% (paper: 98%%)", hit, total, pct)
	if pct < 90 {
		t.Errorf("coverage %.1f%% too low; unhit: %v", pct, session.CoverageUnhit())
	}
	assertCoverage(t, "whole suite", session, suiteCoverage)
}

// TestTable72HostAcceptance — §7.2 on the *real* kernel: the only failures
// are chroot-jail artifacts (the jail root is not a real root directory).
func TestTable72HostAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("host run")
	}
	all := FilterHostSafe(generate(t, (*Session).Generate))
	var sel []*Script
	for i, s := range all {
		if i%5 == 0 {
			sel = append(sel, s)
		}
	}
	traces, results := executeAndCheck(t, sel, HostFS("hostfs"), 1)
	var rejected []string
	for i, r := range results {
		if !r.Accepted {
			rejected = append(rejected, traces[i].Name)
			sev := analysis.Classify(traces[i].Name, r)
			if sev != analysis.SeverityJailArtifact {
				t.Errorf("host deviation %s has severity %v (expected only jail artifacts)",
					traces[i].Name, sev)
			}
		}
	}
	t.Logf("host: %d/%d rejected: %v (paper: 9/21070, chroot artifacts)", len(rejected), len(results), rejected)
	if len(rejected) > 10 {
		t.Errorf("too many host deviations: %d", len(rejected))
	}
}

// TestTable72SpecFSSelfCheck — the determinized model's own traces must be
// accepted with zero failures (by construction, a soundness check).
func TestTable72SpecFSSelfCheck(t *testing.T) {
	ctx := context.Background()
	suite := generate(t, (*Session).Generate)
	stride := 41
	if testing.Short() {
		stride = 163 // a thinner but still cross-group sample
	}
	var sel []*Script
	for i, s := range suite {
		if i%stride == 0 {
			sel = append(sel, s)
		}
	}
	for _, pl := range []Platform{Linux, POSIX} {
		session := New(WithSpec(SpecFor(pl)))
		traces, err := session.Execute(ctx, sel, SpecFS("specfs", SpecFor(pl)))
		if err != nil {
			t.Fatal(err)
		}
		results, err := session.Check(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if !r.Accepted {
				t.Errorf("%v: specfs trace rejected:\n%s", pl, RenderChecked(traces[i], r))
			}
		}
	}
}

// TestTable73Survey — §7.3: the survey across the configuration matrix
// finds every catalogued defect and nothing on the conforming baselines.
func TestTable73Survey(t *testing.T) {
	if testing.Short() {
		t.Skip("survey run")
	}
	configs := Configurations()
	if len(configs) < 40 {
		t.Fatalf("only %d configurations; paper surveys over 40", len(configs))
	}
	// Representative slice: all survey scripts plus a sample of the rest.
	ctx := context.Background()
	session := New()
	suite := generate(t, (*Session).Generate)
	var scripts []*Script
	for i, s := range suite {
		if GroupOfName(s.Name) == "survey" || i%29 == 0 {
			scripts = append(scripts, s)
		}
	}
	// Run the memfs configurations checked against their native variants
	// (cross-variant and host runs are covered by other tests).
	var sel []Config
	for _, c := range configs {
		if !strings.Contains(c.Name, "hostfs") && !strings.Contains(c.Name, " vs posix") {
			sel = append(sel, c)
		}
	}
	results, err := session.Survey(ctx, scripts, sel)
	if err != nil {
		t.Fatal(err)
	}
	bySummary := map[string]*analysis.RunSummary{}
	for _, r := range results {
		bySummary[strings.Split(r.Config.Name, " vs ")[0]] = r.Summary
		t.Logf("%s", r.Summary)
	}

	// Conforming Linux baselines are clean.
	for _, clean := range []string{"ext4", "ext2", "tmpfs", "xfs", "specfs_linux", "posix_reference"} {
		if s, ok := bySummary[clean]; ok && s.Rejected != 0 {
			t.Errorf("%s: %d deviations on a conforming implementation", clean, s.Rejected)
		}
	}
	// Each §7.3 defect is detected, with a critical finding where the
	// paper reports data loss / hangs / exhaustion.
	expectCritical := []string{"posixovl_vfat_1.2", "openzfs_1.3.0_osx", "openzfs_0.6.3_trusty"}
	for _, name := range expectCritical {
		s := bySummary[name]
		if s == nil || s.Rejected == 0 {
			t.Errorf("%s: defect not detected", name)
			continue
		}
		found := false
		for _, d := range s.Deviating {
			if d.Severity == analysis.SeverityCritical {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no critical finding", name)
		}
	}
	for _, name := range []string{"hfsplus_linux_trusty", "sshfs_tmpfs_allow_other", "ufs_freebsd_10", "btrfs", "hfsplus_osx_10.9.5"} {
		if s := bySummary[name]; s == nil || s.Rejected == 0 {
			t.Errorf("%s: defect not detected", name)
		}
	}
	merged, err := session.MergeSurvey(ctx, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Distinguishing()) == 0 {
		t.Error("no distinguishing tests across configurations")
	}
}

func deviated(s *analysis.RunSummary, test string) *analysis.Deviation {
	for i := range s.Deviating {
		if s.Deviating[i].Test == test {
			return &s.Deviating[i]
		}
	}
	return nil
}

// TestFig8OpenZFSSpin — Fig 8: the disconnected-directory create spins on
// OpenZFS/OS X; the oracle flags the watchdog's EINTR as critical.
func TestFig8OpenZFSSpin(t *testing.T) {
	if testing.Short() {
		t.Skip("survey execution run")
	}
	s := runSurveyScripts(t, "openzfs_1.3.0_osx", SpecFor(OSX))
	d := deviated(s, "survey___fig8_disconnected_create")
	if d == nil {
		t.Fatal("Fig 8 spin not detected")
	}
	if d.Severity != analysis.SeverityCritical {
		t.Errorf("severity = %v", d.Severity)
	}
	if !strings.Contains(d.Errors[0].Observed, "EINTR") {
		t.Errorf("observed = %q", d.Errors[0].Observed)
	}
	// Conforming OS X HFS+ does not spin here.
	c := runSurveyScripts(t, "hfsplus_osx_10.9.5", SpecFor(OSX))
	if deviated(c, "survey___fig8_disconnected_create") != nil {
		t.Error("conforming HFS+ flagged on Fig 8")
	}
}

// TestSurveyPosixovlLeak — §7.3.5: the storage leak is detected both as a
// wrong link count and as creation failing on an "empty" volume.
func TestSurveyPosixovlLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("survey execution run")
	}
	s := runSurveyScripts(t, "posixovl_vfat_1.2", SpecFor(Linux))
	d := deviated(s, "survey___posixovl_rename_leak")
	if d == nil {
		t.Fatal("leak not detected")
	}
	if d.Severity != analysis.SeverityCritical {
		t.Errorf("severity = %v", d.Severity)
	}
	// Multiple steps deviate: the nlink observations and eventually the
	// ENOENT creations on the full volume.
	if len(d.Errors) < 10 {
		t.Errorf("only %d deviating steps", len(d.Errors))
	}
}

// TestSurveyPwriteUnderflow — §7.3.4: the OS X VFS negative-offset bug.
func TestSurveyPwriteUnderflow(t *testing.T) {
	if testing.Short() {
		t.Skip("survey execution run")
	}
	s := runSurveyScripts(t, "hfsplus_osx_10.9.5", SpecFor(OSX))
	d := deviated(s, "survey___pwrite_negative_offset")
	if d == nil {
		t.Fatal("underflow not detected")
	}
	if d.Errors[0].Observed != "EFBIG" {
		t.Errorf("observed = %q, want EFBIG (SIGXFSZ stand-in)", d.Errors[0].Observed)
	}
	if len(d.Errors[0].Allowed) != 1 || d.Errors[0].Allowed[0] != "EINVAL" {
		t.Errorf("allowed = %v, want [EINVAL]", d.Errors[0].Allowed)
	}
}

// TestSurveyInvariantViolation — §7.3.2: FreeBSD's symlink replacement
// breaks "errors don't change the state".
func TestSurveyInvariantViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("survey execution run")
	}
	s := runSurveyScripts(t, "ufs_freebsd_10", SpecFor(FreeBSD))
	d := deviated(s, "survey___freebsd_symlink_invariant")
	if d == nil {
		t.Fatal("invariant violation not detected")
	}
	// Two observable deviations: ENOTDIR instead of EEXIST, then the
	// lstat showing a file where the symlink was.
	if len(d.Errors) < 2 {
		t.Errorf("steps = %d, want the error AND the state damage", len(d.Errors))
	}
}

// TestSurveyPlatformConventions — §7.3.3: Linux O_APPEND/pwrite appends;
// POSIX-checking the same trace flags it, Linux-checking accepts it.
func TestSurveyPlatformConventions(t *testing.T) {
	var script *Script
	for _, s := range testSurveyScripts() {
		if s.Name == "survey___o_append_pwrite" {
			script = s
		}
	}
	tr := executeOne(t, script, MemFS(LinuxProfile("ext4")))
	if r := checkOne(t, SpecFor(Linux), tr); !r.Accepted {
		t.Errorf("Linux variant rejected the Linux convention:\n%s", RenderChecked(tr, r))
	}
	if r := checkOne(t, SpecFor(POSIX), tr); r.Accepted {
		t.Error("POSIX variant accepted the Linux O_APPEND/pwrite convention")
	}
}

// TestSurveyErrorCodes — §7.3.2: unlink(dir) splits EISDIR (Linux/LSB)
// from EPERM (POSIX/OS X).
func TestSurveyErrorCodes(t *testing.T) {
	var script *Script
	for _, s := range testSurveyScripts() {
		if s.Name == "survey___unlink_directory" {
			script = s
		}
	}
	trLinux := executeOne(t, script, MemFS(LinuxProfile("ext4")))
	if r := checkOne(t, SpecFor(Linux), trLinux); !r.Accepted {
		t.Error("Linux EISDIR rejected by the Linux variant")
	}
	if r := checkOne(t, SpecFor(OSX), trLinux); r.Accepted {
		t.Error("Linux EISDIR accepted by the OS X variant")
	}
	trOSX := executeOne(t, script, MemFS(OSXProfile("hfs")))
	if r := checkOne(t, SpecFor(OSX), trOSX); !r.Accepted {
		t.Error("OS X EPERM rejected by the OS X variant")
	}
}

// TestSurveySSHFS — §7.3.4: the three mount options compared; allow_other
// alone lets another user read a 0600 file.
func TestSurveySSHFS(t *testing.T) {
	if testing.Short() {
		t.Skip("survey execution run")
	}
	bypass := runSurveyScripts(t, "sshfs_tmpfs_allow_other", SpecFor(Linux))
	if deviated(bypass, "survey___sshfs_allow_other_bypass") == nil {
		t.Error("allow_other permission bypass not detected")
	}
	if deviated(bypass, "survey___sshfs_creation_ownership") == nil {
		t.Error("creation-ownership surprise not detected")
	}
	// default_permissions closes the read bypass.
	defperm := runSurveyScripts(t, "sshfs_tmpfs_default_permissions", SpecFor(Linux))
	if d := deviated(defperm, "survey___sshfs_allow_other_bypass"); d != nil {
		t.Error("default_permissions should enforce the 0600 mode")
	}
}

// TestFig4RenderChecked — the checked-trace output matches Fig 4's shape.
func TestFig4RenderChecked(t *testing.T) {
	text := `@type trace
# Test rename___rename_emptydir___nonemptydir
1: mkdir "emptydir" 0o777
1: RV_none
1: mkdir "nonemptydir" 0o777
1: RV_none
1: open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
1: RV_file_descriptor(FD 3)
1: rename "emptydir" "nonemptydir"
1: EPERM
`
	tr, err := ParseTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderChecked(tr, checkOne(t, DefaultSpec(), tr))
	for _, want := range []string{
		"# Error:", "EPERM",
		"# allowed are only: EEXIST, ENOTEMPTY",
		"# continuing with EEXIST, ENOTEMPTY",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("checked trace missing %q:\n%s", want, out)
		}
	}
}

// TestConfigurationMatrix — the survey matrix has the paper's breadth.
func TestConfigurationMatrix(t *testing.T) {
	configs := Configurations()
	if len(configs) < 40 {
		t.Fatalf("%d configurations, want > 40", len(configs))
	}
	names := map[string]bool{}
	for _, c := range configs {
		if names[c.Name] {
			t.Errorf("duplicate configuration %q", c.Name)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"ext4 vs linux", "hostfs vs linux", "specfs_posix vs posix", "btrfs vs posix"} {
		if !names[want] {
			t.Errorf("matrix missing %q", want)
		}
	}
}
