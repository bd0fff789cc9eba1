package analysis

import (
	"context"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/trace"
)

func mkResult(name string, accepted bool, observed string, allowed ...string) checker.Result {
	r := checker.Result{Name: name, Accepted: accepted}
	if !accepted {
		r.Errors = []checker.StepError{{Line: 1, Observed: observed, Allowed: allowed}}
	}
	return r
}

func TestSummarise(t *testing.T) {
	results := []checker.Result{
		mkResult("rename___a___b", true, ""),
		mkResult("rename___c___d", false, "EPERM", "EEXIST"),
		mkResult("open___x", true, ""),
		mkResult("survey___o_append_pwrite", false, `RV_bytes("XY")`, "RV_bytes(...)"),
	}
	s := Summarise("cfg", nil, results)
	if s.Total != 4 || s.Accepted != 2 || s.Rejected != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ByGroup["rename"].Rejected != 1 || s.ByGroup["rename"].Total != 2 {
		t.Errorf("rename group = %+v", s.ByGroup["rename"])
	}
	if len(s.Deviating) != 2 {
		t.Fatalf("deviations = %d", len(s.Deviating))
	}
	// Sorted most severe first: the O_APPEND data-loss case is critical.
	if s.Deviating[0].Severity != SeverityCritical {
		t.Errorf("first deviation severity = %v", s.Deviating[0].Severity)
	}
	text := s.String()
	if !strings.Contains(text, "2/4 traces accepted") {
		t.Errorf("report text: %s", text)
	}
}

func TestSummariseStateSetStats(t *testing.T) {
	results := []checker.Result{
		{Name: "conc___a", Accepted: true, Steps: 10, SumStates: 40, MaxStates: 12, TauExpansions: 30},
		{Name: "conc___b", Accepted: true, Steps: 10, SumStates: 10, MaxStates: 3, TauExpansions: 5},
	}
	s := Summarise("conc", nil, results)
	if s.PeakStates != 12 {
		t.Errorf("PeakStates = %d", s.PeakStates)
	}
	if s.MeanStates != 2.5 { // (40+10)/(10+10)
		t.Errorf("MeanStates = %v", s.MeanStates)
	}
	if s.TauExpansions != 35 {
		t.Errorf("TauExpansions = %d", s.TauExpansions)
	}
	text := s.String()
	if !strings.Contains(text, "oracle state-set: peak 12 states, mean 2.50, 35 τ-expansions") {
		t.Errorf("report text missing state-set line:\n%s", text)
	}
	html, err := RenderIndexHTML(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "peak 12 states") {
		t.Errorf("index html missing state-set stats")
	}

	// A run with no state tracking (e.g. loaded legacy results) stays
	// silent rather than printing zeros.
	empty := Summarise("empty", nil, []checker.Result{{Name: "t", Accepted: true}})
	if strings.Contains(empty.String(), "oracle state-set") {
		t.Error("state-set line printed for an unmeasured run")
	}
}

func TestClassifySeverities(t *testing.T) {
	cases := []struct {
		test     string
		observed string
		want     Severity
	}{
		{"survey___fig8_disconnected_create", "EINTR", SeverityCritical},
		{"survey___posixovl_rename_leak", "RV_stats{...}", SeverityCritical},
		{"survey___o_append_pwrite", "RV_bytes(...)", SeverityCritical},
		{"survey___pwrite_negative_offset", "EFBIG", SeverityAppFailure},
		{"survey___chmod_unsupported", "EOPNOTSUPP", SeverityAppFailure},
		{"rmdir___root_3slash", "ENOTEMPTY", SeverityJailArtifact},
		{"unlink___dir_empty", "EISDIR", SeverityConvention},
		{"stat___file", "RV_stats{...}", SeverityViolation},
	}
	for _, c := range cases {
		r := mkResult(c.test, false, c.observed)
		if got := Classify(c.test, r); got != c.want {
			t.Errorf("Classify(%s, %s) = %v, want %v", c.test, c.observed, got, c.want)
		}
	}
}

func TestSeverityOrderingAndNames(t *testing.T) {
	order := []Severity{
		SeverityJailArtifact, SeveritySpecIssue, SeverityViolation,
		SeverityConvention, SeverityAppFailure, SeverityCritical,
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatal("severity ordering broken")
		}
	}
	for _, s := range order {
		if s.String() == "unknown" {
			t.Errorf("severity %d has no name", s)
		}
	}
}

func TestMergeDistinguishing(t *testing.T) {
	a := Summarise("fsA", nil, []checker.Result{
		mkResult("t1", false, "EPERM"),
		mkResult("t2", true, ""),
		mkResult("t3", false, "EIO"),
	})
	b := Summarise("fsB", nil, []checker.Result{
		mkResult("t1", true, ""),
		mkResult("t2", true, ""),
		mkResult("t3", false, "EIO"),
	})
	m, err := MergeCtx(context.Background(), []*RunSummary{a, b})
	if err != nil {
		t.Fatal(err)
	}
	diffs := m.Distinguishing()
	if len(diffs) != 1 || diffs[0] != "t1" {
		t.Fatalf("distinguishing = %v", diffs)
	}
	if devs := m.DeviationsFor("t1"); len(devs) != 1 || devs[0] != "fsA" {
		t.Errorf("DeviationsFor = %v", devs)
	}
	// t3 deviates everywhere: common behaviour, not distinguishing.
	if devs := m.DeviationsFor("t3"); len(devs) != 2 {
		t.Errorf("t3 deviations = %v", devs)
	}
}

func TestRenderIndexHTML(t *testing.T) {
	s := Summarise("ext4 vs linux", nil, []checker.Result{
		mkResult("rename___a___b", false, "EPERM", "EEXIST", "ENOTEMPTY"),
		mkResult("open___x", true, ""),
	})
	html, err := RenderIndexHTML(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<html>", "ext4 vs linux", "rename___a___b", "1 / 2 traces accepted"} {
		if !strings.Contains(html, want) {
			t.Errorf("index html missing %q", want)
		}
	}
}

func TestRenderTraceHTML(t *testing.T) {
	tr, err := trace.ParseTrace(`@type trace
1: mkdir "d" 0o755
1: RV_none
`)
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "demo"
	r := checker.Result{Name: "demo", Accepted: true}
	html, err := RenderTraceHTML(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "mkdir") || !strings.Contains(html, "demo") {
		t.Errorf("trace html: %s", html)
	}
}
