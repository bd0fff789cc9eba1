package trace

import "repro/internal/types"

// Step is one label of a script or trace, with its source line for
// diagnostics.
type Step struct {
	Label types.Label
	Line  int
}

// Script is a parsed test script: the calls (and process events) to drive
// against a file system under test.
type Script struct {
	Name  string
	Steps []Step
}

// Trace is a parsed trace: the full sequence of call and return labels
// observed when a script was executed (Fig 3).
type Trace struct {
	Name  string
	Steps []Step
}

// HasCrashLabel reports whether steps contain a crash label: such a
// script needs a crash-capable implementation, and such a trace a
// Spec.Crash model, since no other model variant admits a power cycle.
func HasCrashLabel(steps []Step) bool {
	for _, st := range steps {
		if _, ok := st.Label.(types.CrashLabel); ok {
			return true
		}
	}
	return false
}

// Render prints a script in concrete syntax.
func (s *Script) Render() string { return string(s.AppendRender(nil)) }

// AppendRender appends Render's text to b and returns the extended slice.
func (s *Script) AppendRender(b []byte) []byte {
	return appendSteps(b, "@type script\n", s.Name, s.Steps)
}

// Render prints a trace in concrete syntax.
func (t *Trace) Render() string { return string(t.AppendRender(nil)) }

// AppendRender appends Render's text to b and returns the extended slice.
func (t *Trace) AppendRender(b []byte) []byte {
	return appendSteps(b, "@type trace\n", t.Name, t.Steps)
}

// appendSteps renders a header line, the optional "# Test" name line and
// one line per step.
func appendSteps(b []byte, header, name string, steps []Step) []byte {
	b = append(b, header...)
	if name != "" {
		b = append(append(append(b, "# Test "...), name...), '\n')
	}
	for _, st := range steps {
		b = append(appendLabel(b, st.Label), '\n')
	}
	return b
}

// appendLabel appends l's concrete syntax to b; a nil label renders as a
// comment.
func appendLabel(b []byte, l types.Label) []byte {
	if l == nil {
		return append(b, "# unknown label"...)
	}
	return l.Append(b)
}
