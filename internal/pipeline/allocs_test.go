//go:build !race

package pipeline

import (
	"testing"

	"repro/internal/testgen"
)

// TestScriptHashAllocs pins the allocation cost of the key pass: with the
// render buffer pooled, hashing a script allocates only the returned
// string. Rendering through per-label string concatenation cost about 95
// allocations per script of the sequential suite.
func TestScriptHashAllocs(t *testing.T) {
	scripts := testgen.Generate().Scripts
	i := 0
	perCall := testing.AllocsPerRun(len(scripts), func() {
		ScriptHash(scripts[i%len(scripts)])
		i++
	})
	t.Logf("%.2f allocations per ScriptHash over %d scripts", perCall, len(scripts))
	if perCall > 2 {
		t.Errorf("%.2f allocations per ScriptHash, want <= 2", perCall)
	}
}
