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

// TestConfigHashPinned pins the run-configuration third of cache keys.
// Sequential (and crash, which share them) configurations must keep
// their keys, so caches filled before stay warm; concurrent ones must
// have moved, because their records' tau_expansions fell when the
// closure began to prune with sleep sets, and a warm run must not serve
// the old counts.
func TestConfigHashPinned(t *testing.T) {
	for _, c := range []struct {
		fs         string
		concurrent bool
		seed       int64
		cap        int
		before     string // the key before concurrent records moved
	}{
		{"ext4", false, 0, 4096, "46faac329fb35031"},
		{"spec:linux", false, 0, 4096, "cfa6207e104a060d"},
		{"ext4", true, 1, 4096, "c3c3dc93b6ef5772"},
		{"ext4", true, 7, 4096, "c4f35d57ec2eb33c"},
		{"fuzz-seed|x", true, 0, 4096, "87993127ac7a4515"},
	} {
		got := ConfigHash(c.fs, c.concurrent, c.seed, c.cap)
		if !c.concurrent && got != c.before {
			t.Errorf("ConfigHash(%q, false, %d, %d) = %s, want %s: sequential keys must not move",
				c.fs, c.seed, c.cap, got, c.before)
		}
		if c.concurrent && got == c.before {
			t.Errorf("ConfigHash(%q, true, %d, %d) = %s, unchanged: a warm run would serve records counted without sleep sets",
				c.fs, c.seed, c.cap, got)
		}
	}
}
