package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// FuzzScriptRender checks that rendering is a fixed point of parsing: any
// script the parser accepts renders to text that parses back to the same
// rendering. It also checks that ScriptHash, which renders into a pooled
// buffer, digests exactly that text. The corpus is seeded with a sample
// of every generated universe.
//
//	go test -run '^$' -fuzz FuzzScriptRender -fuzztime 20s ./internal/trace/
func FuzzScriptRender(f *testing.F) {
	for i, s := range testgen.Generate().Scripts {
		if i%1000 == 0 {
			f.Add(s.Render())
		}
	}
	for _, s := range testgen.ConcurrentScripts() {
		f.Add(s.Render())
	}
	for i, s := range testgen.CrashScripts() {
		if i%4 == 0 {
			f.Add(s.Render())
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := trace.ParseScript(text)
		if err != nil {
			return
		}
		rendered := s.Render()
		again, err := trace.ParseScript(rendered)
		if err != nil {
			t.Fatalf("rendering does not parse: %v\n%s", err, rendered)
		}
		if got := again.Render(); got != rendered {
			t.Fatalf("render(parse(render(s))) differs:\n got %q\nwant %q", got, rendered)
		}
		sum := sha256.Sum256([]byte(rendered))
		if got, want := pipeline.ScriptHash(s), hex.EncodeToString(sum[:])[:24]; got != want {
			t.Fatalf("ScriptHash = %s, want %s (sha256 of the rendering)", got, want)
		}
	})
}
