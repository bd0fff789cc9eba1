package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/serveapi"
)

// planSummary renders everything a runPlan resolves to, the factory
// aside (a func, so not comparable): two plans that summarise alike run
// the same suite the same way.
func planSummary(p runPlan) string {
	s := fmt.Sprintf("fs=%+v spec=%+v universe=%q name=%q workers=%d",
		[]any{p.Serial, p.HostOnly, p.Fallback}, p.Spec, p.Universe, p.name, p.workers)
	for _, sc := range p.inline {
		s += "\n" + sc.Render()
	}
	return s
}

// FuzzJobSpec feeds any bytes to the job-spec decoder the submit handler
// uses and plans what decodes. Planning must never panic, and a spec
// that plans must plan identically after a JSON round-trip (what a
// client re-submitting a spec it read back sends).
func FuzzJobSpec(f *testing.F) {
	texts := inlineScripts(2)
	for _, spec := range []serveapi.JobSpec{
		{Name: "parity", FS: "ext4", Scripts: texts, Workers: 2},
		{FS: "ext4", Scripts: texts},
		{FS: "ext4", Universe: "concurrent", SchedSeed: 7, Sample: 3},
		{FS: "ext4", Universe: "crash", Platform: "posix", NoPerms: true, MaxStateSet: 64},
		{FS: "spec:linux"},
		{},
		{FS: "host"},
		{FS: "ext4", Universe: "galactic"},
		{FS: "ext4", Platform: "plan9"},
		{FS: "ext4", Scripts: []string{"not a script"}},
	} {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(retiredFieldSpec))
	srv := &Server{opts: Options{Workers: 2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec serveapi.JobSpec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil {
			return
		}
		p, err := srv.plan(spec)
		if err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding a decoded spec: %v", err)
		}
		var spec2 serveapi.JobSpec
		if err := json.Unmarshal(again, &spec2); err != nil {
			t.Fatalf("decoding %s: %v", again, err)
		}
		p2, err := srv.plan(spec2)
		if err != nil {
			t.Fatalf("spec planned, its round-trip %s does not: %v", again, err)
		}
		if a, b := planSummary(p), planSummary(p2); a != b {
			t.Fatalf("plan changed across a JSON round-trip:\n%s\nvs\n%s", a, b)
		}
	})
}

// retiredFieldSpec is a job spec as older clients send it, with the
// retired isolate_coverage field (every job's coverage is exact now).
const retiredFieldSpec = `{"fs":"spec:linux","isolate_coverage":true}`

// TestRetiredCoverageIsolationField: a spec naming isolate_coverage still
// decodes, and plans exactly as the same spec without the field.
func TestRetiredCoverageIsolationField(t *testing.T) {
	srv := &Server{opts: Options{Workers: 2}}
	plan := func(text string) string {
		var spec serveapi.JobSpec
		if err := json.NewDecoder(bytes.NewReader([]byte(text))).Decode(&spec); err != nil {
			t.Fatalf("decoding %s: %v", text, err)
		}
		p, err := srv.plan(spec)
		if err != nil {
			t.Fatalf("planning %s: %v", text, err)
		}
		return planSummary(p)
	}
	if a, b := plan(retiredFieldSpec), plan(`{"fs":"spec:linux"}`); a != b {
		t.Fatalf("isolate_coverage changed the plan:\n%s\nvs\n%s", a, b)
	}
}
