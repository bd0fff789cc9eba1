package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/checker"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// RunSummary aggregates one configuration's check results.
type RunSummary struct {
	Config    string // configuration name, e.g. "ext4 vs linux"
	Total     int
	Accepted  int
	Rejected  int
	ByGroup   map[string]*GroupSummary
	Deviating []Deviation
	// CovHit/CovTotal report model coverage-point figures for the run
	// (§7.2); zero CovTotal means coverage was not measured.
	CovHit   int
	CovTotal int
	// State-set statistics — how hard the oracle worked (§7.1's MaxStates
	// metric, which concurrent traces finally stress). PeakStates is the
	// largest tracked set across all traces, MeanStates the step-weighted
	// mean set size, TauExpansions the total number of τ-successors
	// explored while closing over internal transitions.
	PeakStates    int
	MeanStates    float64
	TauExpansions int
	// CapHits counts traces whose tracked state set hit the checker's
	// MaxStateSet cap and was truncated: their verdicts are best-effort
	// (see checker.Result.StateSetCapHit) and deserve a second look with a
	// larger cap.
	CapHits int
}

// GroupSummary is the per-command-group breakdown.
type GroupSummary struct {
	Group    string
	Total    int
	Rejected int
}

// Deviation is one non-conformant trace with its classified severity.
type Deviation struct {
	Test     string
	Group    string
	Severity Severity
	Errors   []checker.StepError
}

// Summarise builds a RunSummary from paired traces and results.
func Summarise(config string, traces []*trace.Trace, results []checker.Result) *RunSummary {
	s := &RunSummary{Config: config, ByGroup: make(map[string]*GroupSummary)}
	var sumStates, steps int
	for i, r := range results {
		name := r.Name
		if name == "" && i < len(traces) {
			name = traces[i].Name
		}
		if r.MaxStates > s.PeakStates {
			s.PeakStates = r.MaxStates
		}
		s.TauExpansions += r.TauExpansions
		if r.StateSetCapHit {
			s.CapHits++
		}
		sumStates += r.SumStates
		steps += r.Steps
		g := testgen.GroupOf(name)
		gs, ok := s.ByGroup[g]
		if !ok {
			gs = &GroupSummary{Group: g}
			s.ByGroup[g] = gs
		}
		s.Total++
		gs.Total++
		if r.Accepted {
			s.Accepted++
			continue
		}
		s.Rejected++
		gs.Rejected++
		s.Deviating = append(s.Deviating, Deviation{
			Test:     name,
			Group:    g,
			Severity: Classify(name, r),
			Errors:   r.Errors,
		})
	}
	if steps > 0 {
		s.MeanStates = float64(sumStates) / float64(steps)
	}
	sort.Slice(s.Deviating, func(i, j int) bool {
		if s.Deviating[i].Severity != s.Deviating[j].Severity {
			return s.Deviating[i].Severity > s.Deviating[j].Severity
		}
		return s.Deviating[i].Test < s.Deviating[j].Test
	})
	return s
}

// Groups returns group summaries sorted by name.
func (s *RunSummary) Groups() []*GroupSummary {
	out := make([]*GroupSummary, 0, len(s.ByGroup))
	for _, g := range s.ByGroup {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// String renders a compact text report.
func (s *RunSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d traces accepted (%d deviations)\n",
		s.Config, s.Accepted, s.Total, s.Rejected)
	for _, g := range s.Groups() {
		if g.Rejected > 0 {
			fmt.Fprintf(&b, "  %-12s %d/%d rejected\n", g.Group, g.Rejected, g.Total)
		}
	}
	counts := map[Severity]int{}
	for _, d := range s.Deviating {
		counts[d.Severity]++
	}
	for sev := SeverityCritical; sev >= SeverityJailArtifact; sev-- {
		if counts[sev] > 0 {
			fmt.Fprintf(&b, "  severity %-22s %d\n", sev, counts[sev])
		}
	}
	if s.CovTotal > 0 {
		fmt.Fprintf(&b, "  model coverage %d/%d points (%.1f%%)\n",
			s.CovHit, s.CovTotal, 100*float64(s.CovHit)/float64(s.CovTotal))
	}
	if s.PeakStates > 0 {
		fmt.Fprintf(&b, "  oracle state-set: peak %d states, mean %.2f, %d τ-expansions\n",
			s.PeakStates, s.MeanStates, s.TauExpansions)
	}
	if s.CapHits > 0 {
		fmt.Fprintf(&b, "  WARNING: %d trace(s) hit the state-set cap; their verdicts are best-effort\n",
			s.CapHits)
	}
	return b.String()
}

// Merged combines summaries from many configurations, highlighting tests
// that deviate on some configurations but not others (the paper's merged
// test runs, §7).
type Merged struct {
	Configs []string
	// PerTest maps test name → set of configs where it deviated.
	PerTest map[string]map[string]bool
}

// MergeCtx combines run summaries, with cooperative cancellation
// consulted between runs: merging a full >40-configuration survey walks
// every deviating test of every run, which is worth interrupting when the
// caller's deadline has already passed. On cancellation the partial merge is
// returned with ctx.Err().
func MergeCtx(ctx context.Context, runs []*RunSummary) (*Merged, error) {
	m := &Merged{PerTest: make(map[string]map[string]bool)}
	for _, r := range runs {
		if err := ctx.Err(); err != nil {
			sort.Strings(m.Configs)
			return m, err
		}
		m.Configs = append(m.Configs, r.Config)
		for _, d := range r.Deviating {
			set, ok := m.PerTest[d.Test]
			if !ok {
				set = make(map[string]bool)
				m.PerTest[d.Test] = set
			}
			set[r.Config] = true
		}
	}
	sort.Strings(m.Configs)
	return m, nil
}

// Distinguishing returns tests that deviate on at least one but not all
// configurations — the behavioural differences between file systems that
// SibylFS is designed to surface.
func (m *Merged) Distinguishing() []string {
	var out []string
	for test, set := range m.PerTest {
		if len(set) > 0 && len(set) < len(m.Configs) {
			out = append(out, test)
		}
	}
	sort.Strings(out)
	return out
}

// DeviationsFor lists the configs on which test deviated.
func (m *Merged) DeviationsFor(test string) []string {
	var out []string
	for cfg := range m.PerTest[test] {
		out = append(out, cfg)
	}
	sort.Strings(out)
	return out
}
