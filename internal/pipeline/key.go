package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/types"
)

// SpecHash digests the model identity: the model version (bumped on any
// semantic change to the specification — see osspec.ModelVersion) and the
// variant/trait mix the checker is configured with. Two runs share cached
// results only if their SpecHash agrees.
func SpecHash(modelVersion string, spec types.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "model=%s\nplatform=%s\npermissions=%t\ntimestamps=%t\nrootuser=%t\ncrash=%t\n",
		modelVersion, spec.Platform, spec.Permissions, spec.Timestamps, spec.RootUser, spec.Crash)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ConfigHash digests everything else that can change a verdict: the
// implementation under test, the executor mode (sequential vs concurrent,
// and the scheduler seed when seeded), and the checker's state-set cap.
// Worker counts are deliberately absent — the checker's determinism
// contract guarantees results do not depend on them.
//
// Concurrent records count τ-expansions net of the successors covered
// masks and sleep sets prove redundant (osspec.ClosureOpts.Covered), a
// smaller number for the same verdict; the extra line gives them keys of
// their own, so a cache filled before that count last moved is not
// served for them, while sequential and crash keys (whose counts did not
// move) stay where they were.
func ConfigHash(fsName string, concurrent bool, schedSeed int64, maxStateSet int) string {
	h := sha256.New()
	fmt.Fprintf(h, "fs=%s\nconcurrent=%t\nseed=%d\ncap=%d\n",
		fsName, concurrent, schedSeed, maxStateSet)
	if concurrent {
		fmt.Fprint(h, "tau=sleep\n")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// renderBufs recycles ScriptHash's render buffers across calls and
// goroutines.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// ScriptHash digests a script's rendered text (which includes its name, so
// two identical command sequences under different names cache separately
// and records keep honest names). The text is rendered into a pooled
// buffer, so hashing allocates only the returned string.
func ScriptHash(s *trace.Script) string {
	buf := renderBufs.Get().(*[]byte)
	*buf = s.AppendRender((*buf)[:0])
	sum := sha256.Sum256(*buf)
	renderBufs.Put(buf)
	var hexSum [24]byte
	hex.Encode(hexSum[:], sum[:12])
	return string(hexSum[:])
}

// Key combines the three component hashes into the content address of one
// checked-trace result. The same key always denotes the same verdict
// bytes; that is the whole cache contract.
func Key(scriptHash, specHash, configHash string) string {
	sum := sha256.Sum256([]byte(scriptHash + "\x00" + specHash + "\x00" + configHash))
	return hex.EncodeToString(sum[:])
}
