package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Generation cache: generated suites stored as content-addressed blobs in
// the result cache (GetRaw/PutRaw), keyed by (testgen version, universe).
// The blob stores each script's rendered text together with its
// precomputed ScriptHash, because pipeline.Run needs every script's
// content hash for key computation. A warm load parses the stored text and
// hands the hashes to the session's memo, so the run's key pass is pure
// lookups. (ScriptHash now renders into a pooled buffer, so hashing the
// 21k-script suite costs about as much as generating it; the cache no
// longer pays for itself.)

// suiteMagic versions the blob layout; bump on any format change.
const suiteMagic = "sfs-suite-v1"

// GenSuiteKey is the content address of a generated suite: the testgen
// version (bumped whenever generation output changes) and the universe
// name ("sequential", "concurrent"). The "gencache" tag namespaces the key
// away from checked-trace records per GetRaw's contract.
func GenSuiteKey(testgenVersion, universe string) string {
	sum := sha256.Sum256([]byte("gencache\x00" + testgenVersion + "\x00" + universe))
	return hex.EncodeToString(sum[:])
}

// EncodeSuite serializes scripts into a suite blob, rendering each script
// exactly once to derive both its stored text and its content hash. The
// returned hashes are index-aligned with scripts.
func EncodeSuite(scripts []*trace.Script) (blob []byte, hashes []string) {
	var b strings.Builder
	b.WriteString(suiteMagic)
	b.WriteByte('\n')
	b.WriteString(strconv.Itoa(len(scripts)))
	b.WriteByte('\n')
	hashes = make([]string, len(scripts))
	for i, s := range scripts {
		text := s.Render()
		sum := sha256.Sum256([]byte(text))
		hashes[i] = hex.EncodeToString(sum[:])[:24]
		// Header line: hash, text length, then the name (which may itself
		// contain spaces, so it goes last and runs to end of line).
		b.WriteString(hashes[i])
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(len(text)))
		b.WriteByte(' ')
		b.WriteString(s.Name)
		b.WriteByte('\n')
		b.WriteString(text)
	}
	return []byte(b.String()), hashes
}

// DecodeSuite parses a suite blob back into scripts and their content
// hashes. Any structural damage is an error — callers treat it as a cache
// miss and regenerate.
func DecodeSuite(blob []byte) (scripts []*trace.Script, hashes []string, err error) {
	s := string(blob)
	line, rest, ok := strings.Cut(s, "\n")
	if !ok || line != suiteMagic {
		return nil, nil, fmt.Errorf("gencache: bad magic")
	}
	line, rest, ok = strings.Cut(rest, "\n")
	if !ok {
		return nil, nil, fmt.Errorf("gencache: truncated count")
	}
	n, err := strconv.Atoi(line)
	if err != nil || n < 0 {
		return nil, nil, fmt.Errorf("gencache: bad count %q", line)
	}
	scripts = make([]*trace.Script, 0, n)
	hashes = make([]string, 0, n)
	for i := 0; i < n; i++ {
		line, rest, ok = strings.Cut(rest, "\n")
		if !ok {
			return nil, nil, fmt.Errorf("gencache: truncated header at script %d", i)
		}
		hash, tail, ok := strings.Cut(line, " ")
		if !ok {
			return nil, nil, fmt.Errorf("gencache: bad header at script %d", i)
		}
		lenStr, name, ok := strings.Cut(tail, " ")
		if !ok {
			return nil, nil, fmt.Errorf("gencache: bad header at script %d", i)
		}
		textLen, err := strconv.Atoi(lenStr)
		if err != nil || textLen < 0 || textLen > len(rest) {
			return nil, nil, fmt.Errorf("gencache: bad length at script %d", i)
		}
		text := rest[:textLen]
		rest = rest[textLen:]
		sc, err := trace.ParseScript(text)
		if err != nil {
			return nil, nil, fmt.Errorf("gencache: script %d: %w", i, err)
		}
		if sc.Name == "" {
			sc.Name = name
		}
		scripts = append(scripts, sc)
		hashes = append(hashes, hash)
	}
	return scripts, hashes, nil
}
