package checker

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/par"
	"repro/internal/trace"
)

// CheckAll checks many traces concurrently with workers goroutines
// (workers ≤ 0 selects GOMAXPROCS), preserving input order in the results.
// Trace independence gives the parallel speedup §7.1 relies on.
func (c *Checker) CheckAll(traces []*trace.Trace, workers int) []Result {
	results, _ := c.CheckAllCtx(context.Background(), traces, workers)
	return results
}

// CheckAllCtx is CheckAll with cooperative cancellation: ctx is consulted
// between traces (and, via CheckCtx, inside each trace). On cancellation
// the results completed so far stay in place (unchecked slots zero) and
// ctx.Err() is returned.
func (c *Checker) CheckAllCtx(ctx context.Context, traces []*trace.Trace, workers int) ([]Result, error) {
	results := make([]Result, len(traces))
	par.Each(ctx, workers, len(traces), func(_, i int) bool {
		results[i], _ = c.CheckCtx(ctx, traces[i])
		return true
	})
	return results, ctx.Err()
}

// RenderChecked interleaves the original trace with the checker's
// diagnostics, producing a checked trace in the style of Fig 4.
func RenderChecked(t *trace.Trace, r Result) string {
	var byLine map[int][]StepError // nil on the common accepted path
	if len(r.Errors) > 0 {
		byLine = make(map[int][]StepError)
		for _, e := range r.Errors {
			byLine[e.Line] = append(byLine[e.Line], e)
		}
	}
	var b strings.Builder
	b.WriteString("@type checked_trace\n")
	if t.Name != "" {
		b.WriteString("# Test ")
		b.WriteString(t.Name)
		b.WriteByte('\n')
	}
	var line []byte // one label's rendering, reused across steps
	for _, st := range t.Steps {
		line = append(st.Label.Append(line[:0]), '\n')
		b.Write(line)
		for _, e := range byLine[st.Line] {
			b.WriteString(e.Message())
		}
	}
	if r.Accepted {
		b.WriteString("# Trace accepted.\n")
	} else {
		fmt.Fprintf(&b, "# Trace NOT accepted: %d error(s).\n", len(r.Errors))
	}
	return b.String()
}
