package checker

import (
	"context"
	"strconv"

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
	return string(AppendChecked(nil, t, r))
}

// AppendChecked appends RenderChecked's text to b and returns the
// extended slice, so a caller that renders many traces reuses one buffer.
func AppendChecked(b []byte, t *trace.Trace, r Result) []byte {
	var byLine map[int][]StepError // nil on the common accepted path
	if len(r.Errors) > 0 {
		byLine = make(map[int][]StepError)
		for _, e := range r.Errors {
			byLine[e.Line] = append(byLine[e.Line], e)
		}
	}
	b = append(b, "@type checked_trace\n"...)
	if t.Name != "" {
		b = append(append(append(b, "# Test "...), t.Name...), '\n')
	}
	for _, st := range t.Steps {
		b = append(st.Label.Append(b), '\n')
		for _, e := range byLine[st.Line] {
			b = e.AppendMessage(b)
		}
	}
	if r.Accepted {
		return append(b, "# Trace accepted.\n"...)
	}
	b = strconv.AppendInt(append(b, "# Trace NOT accepted: "...), int64(len(r.Errors)), 10)
	return append(b, " error(s).\n"...)
}
