package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/testgen"
	"repro/internal/trace"
)

// universes is every generated script: the sequential suite, then the
// concurrent and crash universes.
func universes() []*trace.Script {
	all := append([]*trace.Script(nil), testgen.Generate().Scripts...)
	all = append(all, testgen.ConcurrentScripts()...)
	return append(all, testgen.CrashScripts()...)
}

// scriptHashesPin is the sha256 of every generated script's ScriptHash,
// concatenated in universes order. Script hashes are a third of every
// cache key, so a change here would turn every cached record into a
// miss: rendering changes must leave it alone.
const scriptHashesPin = "a55e265a348947bd2060ad9388fda4612883735eb7bb2315a5bd2433b0470cf8"

func TestScriptHashesPinned(t *testing.T) {
	h := sha256.New()
	for _, s := range universes() {
		h.Write([]byte(ScriptHash(s)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scriptHashesPin {
		t.Fatalf("script hashes moved: digest %s, want %s", got, scriptHashesPin)
	}
}
