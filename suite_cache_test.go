package sibylfs

// Test-process caches for the survey fixtures. The hand-written survey
// scripts are cheap to build but expensive to execute-and-check (the
// capacity-fill loops dominate), and several tests examine the same
// profile against the same model variant — so the per-(profile, platform)
// run summaries are memoised. The full generated suite is deliberately NOT
// cached: keeping 21k scripts live inflates every GC mark cycle and
// measurably slows the fingerprint-heavy checker; Session.Generate itself
// costs only ~0.1s per call.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/testgen"
)

var surveyScriptsOnce struct {
	sync.Once
	scripts []*Script
}

// testSurveyScripts returns the hand-written survey scenarios (§7.3).
// HandwrittenScripts also carries interleave/permission scripts; keep the
// same survey-group filter the tests applied to the full suite.
func testSurveyScripts() []*Script {
	surveyScriptsOnce.Do(func() {
		for _, s := range testgen.HandwrittenScripts() {
			if GroupOfName(s.Name) == "survey" {
				surveyScriptsOnce.scripts = append(surveyScriptsOnce.scripts, s)
			}
		}
	})
	return surveyScriptsOnce.scripts
}

var surveyRunCache = struct {
	sync.Mutex
	runs map[string]*analysis.RunSummary
}{runs: make(map[string]*analysis.RunSummary)}

// runSurveyScripts executes the survey scripts on one memfs profile and
// checks them against spec, memoised on (profile, platform).
func runSurveyScripts(t *testing.T, profName string, spec Spec) *analysis.RunSummary {
	t.Helper()
	key := fmt.Sprintf("%s vs %v", profName, spec.Platform)
	surveyRunCache.Lock()
	defer surveyRunCache.Unlock()
	if s, ok := surveyRunCache.runs[key]; ok {
		return s
	}
	var prof Profile
	found := false
	for _, p := range SurveyProfiles() {
		if p.Name == profName {
			prof, found = p, true
		}
	}
	if !found {
		t.Fatalf("profile %q missing", profName)
	}
	ctx := context.Background()
	session := New(WithSpec(spec))
	traces, err := session.Execute(ctx, testSurveyScripts(), MemFS(prof))
	if err != nil {
		t.Fatal(err)
	}
	results, err := session.Check(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	s := analysis.Summarise(profName, traces, results)
	surveyRunCache.runs[key] = s
	return s
}
