package checker

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// raceTrace builds an n-process mkdir race with simultaneously pending
// calls — the closure-heavy fixture the cap tests drive.
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
