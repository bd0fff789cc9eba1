package fuzz

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// FindingKind distinguishes what the fuzzer caught.
type FindingKind int

const (
	// KindDeviation is an oracle-rejected trace: the implementation left
	// the model's envelope.
	KindDeviation FindingKind = iota
	// KindCrash is a panic inside the implementation or the model while
	// processing the input.
	KindCrash
)

func (k FindingKind) String() string {
	if k == KindCrash {
		return "crash"
	}
	return "deviation"
}

// Finding is one fuzzer-discovered defect, already minimized.
type Finding struct {
	Name     string
	Kind     FindingKind
	Script   *trace.Script // minimized reproducer
	Original *trace.Script // the candidate as first caught
	Trace    *trace.Trace  // trace of the minimized script (deviations)
	Result   checker.Result
	Sig      string
	// Dups counts further candidates that minimized to this signature.
	Dups int
	// PanicValue holds the recovered value for crashes.
	PanicValue string
}

// findingSig collapses a minimized reproducer to a dedup key: the command
// kinds in order plus the oracle's observed-vs-allowed diagnosis. Argument
// variants of the same root cause (chmod "/a" vs chmod "/b") share a key.
func findingSig(s *trace.Script, r checker.Result) string {
	var b strings.Builder
	for _, st := range s.Steps {
		switch l := st.Label.(type) {
		case types.CallLabel:
			b.WriteString(l.Cmd.Op())
		case types.CreateLabel:
			b.WriteString("create")
		case types.DestroyLabel:
			b.WriteString("destroy")
		}
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "%s/%s;", e.Observed, strings.Join(e.Allowed, " "))
	}
	return b.String()
}

// rawDeviationKey is the pre-minimization dedup key: for each failing
// step, the command kind that failed with its observed/allowed diagnosis.
// Candidates re-triggering a known defect share it regardless of the
// surrounding noise steps, so they skip re-minimization; distinct defects
// that collide (same op, same diagnosis, different state context) merge
// into one finding, which is the usual fuzzer trade.
func rawDeviationKey(t *trace.Trace, r checker.Result) string {
	opAt := make(map[int]string, len(t.Steps))
	for _, st := range t.Steps {
		if cl, ok := st.Label.(types.CallLabel); ok {
			// Errors are usually observed on the return that follows the
			// call, but the checker can also diagnose the call line itself
			// (no transition allowed); cover both.
			opAt[st.Line] = cl.Cmd.Op()
			opAt[st.Line+1] = cl.Cmd.Op()
		}
	}
	var b strings.Builder
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "%s:%s/%s;", opAt[e.Line], e.Observed, strings.Join(e.Allowed, " "))
	}
	return b.String()
}

// findingName derives a stable short name from the signature, so the same
// root cause gets the same file names across fuzzing sessions.
func findingName(kind FindingKind, sig string) string {
	h := sha1.Sum([]byte(sig))
	return "fuzz___" + kind.String() + "_" + hex.EncodeToString(h[:4])
}

// ReportWith renders findings through the analysis pipeline: a
// RunSummary with severity classification (§7.3's taxonomy), stamped with
// the session's model-coverage figures, plus the HTML index. Crashes
// carry no checkable trace and are appended as synthetic critical
// deviations. The summary's build time goes to tel's
// analysis.summarise_ns.
func ReportWith(config string, findings []*Finding, covHit, covTotal int, tel *telemetry.Registry) (*analysis.RunSummary, string, error) {
	var traces []*trace.Trace
	var results []checker.Result
	for _, f := range findings {
		if f.Kind == KindCrash {
			traces = append(traces, &trace.Trace{Name: f.Name})
			results = append(results, checker.Result{
				Name:     f.Name,
				Accepted: false,
				Errors: []checker.StepError{{
					// EINTR is the harness's hang/crash marker (Fig 8);
					// Classify maps it to critical.
					Observed: "EINTR",
					Allowed:  nil,
				}},
			})
			continue
		}
		traces = append(traces, f.Trace)
		results = append(results, f.Result)
	}
	start := time.Now()
	sum := analysis.Summarise(config, traces, results)
	tel.Histogram("analysis.summarise_ns").ObserveSince(start)
	sum.CovHit, sum.CovTotal = covHit, covTotal
	html, err := analysis.RenderIndexHTML(sum)
	if err != nil {
		return sum, "", err
	}
	return sum, html, nil
}

// saveFinding persists a finding under dir/findings: the minimized
// reproducer as a .script and, for deviations, the Fig 4 checked trace.
func saveFinding(dir string, f *Finding) error {
	fdir := filepath.Join(dir, "findings")
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(fdir, f.Name+".script"),
		[]byte(f.Script.Render()), 0o644); err != nil {
		return err
	}
	if f.Kind == KindDeviation && f.Trace != nil {
		checked := checker.RenderChecked(f.Trace, f.Result)
		return os.WriteFile(filepath.Join(fdir, f.Name+".checked.txt"),
			[]byte(checked), 0o644)
	}
	if f.Kind == KindCrash {
		return os.WriteFile(filepath.Join(fdir, f.Name+".panic.txt"),
			[]byte(f.PanicValue), 0o644)
	}
	return nil
}
