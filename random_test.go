package sibylfs

// Randomised differential testing — the mode §8 describes as a low-cost
// alternative "(that SibylFS also supports)": seeded random command
// sequences executed on the conforming implementations must always stay
// inside the model's envelope. Any rejection here is a bug in either the
// model or the implementation, found for free.

import (
	"testing"

	"repro/internal/testgen"
)

func TestRandomDifferentialMemfs(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 80
	}
	scripts := testgen.RandomScripts(1, n, 25)
	traces, results := executeAndCheck(t, scripts, MemFS(LinuxProfile("ext4")), 0)
	for i, r := range results {
		if !r.Accepted {
			t.Errorf("random script deviates — model or memfs bug:\n%s\n%s",
				scripts[i].Render(), RenderChecked(traces[i], r))
			if i > 3 {
				t.FailNow()
			}
		}
	}
}

func TestRandomDifferentialSpecFS(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 40
	}
	scripts := testgen.RandomScripts(2, n, 20)
	traces, results := executeAndCheck(t, scripts, SpecFS("specfs", DefaultSpec()), 0)
	for i, r := range results {
		if !r.Accepted {
			t.Errorf("determinized model outside its own envelope:\n%s\n%s",
				scripts[i].Render(), RenderChecked(traces[i], r))
			if i > 3 {
				t.FailNow()
			}
		}
	}
}

func TestRandomDifferentialHost(t *testing.T) {
	if testing.Short() {
		t.Skip("host run")
	}
	scripts := FilterHostSafe(testgen.RandomScripts(3, 200, 20))
	traces, results := executeAndCheck(t, scripts, HostFS("host"), 1)
	bad := 0
	for i, r := range results {
		if !r.Accepted {
			bad++
			if bad <= 3 {
				t.Errorf("random script deviates on the real kernel:\n%s\n%s",
					scripts[i].Render(), RenderChecked(traces[i], r))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d random host traces rejected", bad, len(results))
	}
}

// TestRandomScriptReplayableAlone: any script of a batch regenerates
// identically on its own from (seed, index) — corpus replay in
// internal/fuzz depends on this per-script independence.
func TestRandomScriptReplayableAlone(t *testing.T) {
	batch := testgen.RandomScripts(21, 10, 12)
	for i, want := range batch {
		got := testgen.RandomScript(21, i, 12)
		if got.Render() != want.Render() {
			t.Fatalf("script %d regenerated alone differs from batch:\n%s\nvs\n%s",
				i, got.Render(), want.Render())
		}
	}
}

func TestRandomScriptsReproducible(t *testing.T) {
	a := testgen.RandomScripts(7, 5, 10)
	b := testgen.RandomScripts(7, 5, 10)
	for i := range a {
		if a[i].Render() != b[i].Render() {
			t.Fatalf("seeded generation not reproducible at script %d", i)
		}
	}
	c := testgen.RandomScripts(8, 5, 10)
	same := 0
	for i := range a {
		if a[i].Render() == c[i].Render() {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical scripts")
	}
}
