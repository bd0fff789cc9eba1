package telemetry

import "time"

// Span is a lightweight timing scope: ending it records its duration into
// the registry's "span.<name>" histogram. Spans are not retained
// individually — a million per run cost a million histogram observations,
// nothing more.
//
// End is nil-safe: a nil *Span is an always-off span, so call sites never
// need their own guards.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// Span starts a span named name.
func (r *Registry) Span(name string) *Span {
	return &Span{reg: r, name: name, start: time.Now()}
}

// End finishes the span, recording its duration. Safe to call once.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.Histogram("span." + s.name).Observe(int64(d))
	return d
}
