package sibylfs

import "repro/internal/fuzz"

// Fuzzing vocabulary, re-exported: a coverage-guided mutation fuzzer over
// test scripts (the feedback loop of §8/§9's future work; see
// internal/fuzz and cmd/sfs-fuzz).
type (
	// FuzzConfig parameterises a fuzzing session.
	FuzzConfig = fuzz.Config
	// FuzzResult is the outcome of a session.
	FuzzResult = fuzz.Result
	// FuzzFinding is one minimized defect the fuzzer discovered.
	FuzzFinding = fuzz.Finding
)
