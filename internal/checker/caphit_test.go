package checker

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

// raceTrace builds an n-process mkdir race with simultaneously pending
// calls — the closure-heavy fixture the cap and worker tests drive.
func raceTrace(n int) string {
	var b strings.Builder
	b.WriteString("@type trace\n")
	for p := 2; p <= n; p++ {
		b.WriteString("create " + itoa(p) + " 0 0\n")
	}
	for p := 1; p <= n; p++ {
		b.WriteString(itoa(p) + `: mkdir "/r" 0o755` + "\n")
	}
	b.WriteString("1: RV_none\n")
	for p := 2; p <= n; p++ {
		b.WriteString(itoa(p) + ": EEXIST\n")
	}
	return b.String()
}

// TestStateSetCapHitSurfaced: a tiny cap must truncate the tracked set and
// say so, instead of silently checking against a partial state set; an
// uncapped run of the same trace must not set the flag.
func TestStateSetCapHitSurfaced(t *testing.T) {
	tr := parse(t, raceTrace(4))
	c := New(types.DefaultSpec())
	c.MaxStateSet = 2
	r := c.Check(tr)
	if !r.StateSetCapHit {
		t.Error("cap 2 on a 4-way race did not set StateSetCapHit")
	}

	free := New(types.DefaultSpec())
	rf := free.Check(tr)
	if rf.StateSetCapHit {
		t.Error("uncapped check reported a cap hit")
	}
	if !rf.Accepted {
		t.Fatalf("race trace rejected: %+v", rf.Errors)
	}
}

// TestCapHitAblationPath: the dedup-off reduce path truncates too and must
// report it the same way.
func TestCapHitAblationPath(t *testing.T) {
	tr := parse(t, raceTrace(4))
	c := New(types.DefaultSpec())
	c.DisableDedup = true
	c.MaxStateSet = 2
	if r := c.Check(tr); !r.StateSetCapHit {
		t.Error("ablation reduce truncated silently")
	}
}

// TestWorkerCountDoesNotChangeResults: checking traces across workers
// (CheckAll, one trace per goroutine, one shared checker) is
// observationally identical for every worker count — same acceptance,
// same diagnoses, same state-set statistics, same coverage sets.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	var traces []*trace.Trace
	for _, text := range []string{raceTrace(4), raceTrace(5), twoWriterTrace,
		strings.Replace(twoWriterTrace, `RV_bytes("aa")`, `RV_bytes("ab")`, 1)} {
		traces = append(traces, parse(t, text))
	}
	// TauNanos is wall-clock telemetry, no part of the observational
	// contract.
	check := func(workers int) []Result {
		rs := New(types.DefaultSpec()).CheckAll(traces, workers)
		for i := range rs {
			rs[i].TauNanos = 0
		}
		return rs
	}
	want := check(1)
	for _, workers := range []int{2, 4} {
		if got := check(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged:\n%+v\nwant\n%+v", workers, got, want)
		}
	}
}
