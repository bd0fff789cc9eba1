package checker

import (
	"strconv"

	"repro/internal/trace"
)

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
