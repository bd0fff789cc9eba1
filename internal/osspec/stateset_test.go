package osspec

// Differential tests of StateSet (inline array, spilling into a bucket
// map) against refSet, a map-only dedup: every Add must agree on
// "new or duplicate", across the inline→map boundary, under forced hash
// collisions, and through Reset after a spill.

import (
	"math/rand"
	"testing"
)

// refSet is the reference dedup: hash buckets confirmed by StateEqual,
// with no inline storage.
type refSet map[uint64][]*OsState

func (r refSet) add(h uint64, s *OsState) bool {
	for _, t := range r[h] {
		if StateEqual(t, s) {
			return false
		}
	}
	r[h] = append(r[h], s)
	return true
}

// checkReleased fails if a reset set still references any state.
func checkReleased(t *testing.T, ss *StateSet) {
	t.Helper()
	if ss.Len() != 0 || ss.spilled || len(ss.buckets) != 0 {
		t.Fatalf("reset left len=%d spilled=%v buckets=%d", ss.Len(), ss.spilled, len(ss.buckets))
	}
	for i, e := range ss.inline {
		if e.s != nil {
			t.Fatalf("reset left a state in inline slot %d", i)
		}
	}
}

// TestStateSetMatchesMapDedup drives one reused set through random rounds
// of clone-mutate walk states (originals and clones, so duplicates are
// found both by pointer and by StateEqual). Round sizes straddle the
// inline capacity, so rounds that spill alternate with rounds that fit.
func TestStateSetMatchesMapDedup(t *testing.T) {
	ss := NewStateSet(0)
	spills := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := randomWalkStates(rng, 30)
		for round := 0; round < 30; round++ {
			ss.Reset()
			checkReleased(t, ss)
			ref := refSet{}
			for i, n := 0, rng.Intn(4*stateSetInline); i < n; i++ {
				s := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					s = s.Clone()
				}
				want := ref.add(s.Hash(), s)
				if got := ss.Add(s); got != want {
					t.Fatalf("seed %d round %d add %d: Add=%v, map dedup says %v", seed, round, i, got, want)
				}
			}
			n := 0
			for _, b := range ref {
				n += len(b)
			}
			if ss.Len() != n {
				t.Fatalf("seed %d round %d: Len=%d, map dedup holds %d", seed, round, ss.Len(), n)
			}
			if ss.spilled {
				spills++
			}
		}
	}
	if spills == 0 {
		t.Fatal("no round outgrew the inline array")
	}
}

// TestStateSetForcedCollisions gives distinct states one shared digest:
// only StateEqual may decide, inline and after the spill alike. Clones
// under the same digest must still merge.
func TestStateSetForcedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := randomWalkStates(rng, 40)
	ss := NewStateSet(0)
	for _, digests := range []int{1, 2, 3} {
		for pass := 0; pass < 2; pass++ {
			ss.Reset()
			ref := refSet{}
			for i, s := range pool {
				h := uint64(i % digests)
				for _, cand := range []*OsState{s, s.Clone()} {
					want := ref.add(h, cand)
					if got := ss.add(h, cand); got != want {
						t.Fatalf("%d digests, state %d: add=%v, map dedup says %v", digests, i, got, want)
					}
				}
			}
			if !ss.spilled {
				t.Fatalf("%d digests: %d distinct states never spilled", digests, ss.Len())
			}
		}
	}
}

// TestStateSetResetAfterSpill reuses one set through a spill, a shrink to
// a few states and an empty round: after each Reset, earlier members are
// new again and the map is neither consulted nor left holding states.
func TestStateSetResetAfterSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := randomWalkStates(rng, 40)
	var distinct []*OsState
	seen := NewStateSet(len(pool))
	for _, s := range pool {
		if seen.Add(s) {
			distinct = append(distinct, s)
		}
	}
	if len(distinct) <= 2*stateSetInline {
		t.Fatalf("walk gave only %d distinct states", len(distinct))
	}
	ss := NewStateSet(0)
	for _, size := range []int{2 * stateSetInline, 3, 0, stateSetInline, stateSetInline + 1, 1} {
		ss.Reset()
		checkReleased(t, ss)
		for _, s := range distinct[:size] {
			if !ss.Add(s) {
				t.Fatalf("size %d: a member of an earlier round survived Reset", size)
			}
			if ss.Add(s.Clone()) {
				t.Fatalf("size %d: clone of a member not merged", size)
			}
		}
		if ss.Len() != size {
			t.Fatalf("size %d: Len=%d", size, ss.Len())
		}
		if want := size > stateSetInline; ss.spilled != want {
			t.Fatalf("size %d: spilled=%v, want %v", size, ss.spilled, want)
		}
	}
	ss.Reset()
	checkReleased(t, ss)
}
