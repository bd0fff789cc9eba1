package cov

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The test points register at init, as model points do: the universe is
// process-global and append-only.
var (
	ptA = Point("covtest/a")
	ptB = Point("covtest/b")
	ptC = Point("covtest/c")
)

func TestPointRegistrationAndHits(t *testing.T) {
	if ptA == ptB || ptB == ptC {
		t.Fatal("distinct names share an ID")
	}
	if again := Point("covtest/a"); again != ptA {
		t.Fatalf("re-registration returned ID %d, want %d", again, ptA)
	}
	r := NewRegistry()
	var s Set
	s.Hit(ptA)
	s.Hit(ptA)
	r.Merge(&s)
	hit, total := r.Stats()
	if total < 3 || hit != 1 {
		t.Fatalf("Stats = %d/%d, want 1 hit of at least 3", hit, total)
	}
	unhit := r.Unhit()
	if !contains(unhit, "covtest/b") || contains(unhit, "covtest/a") {
		t.Fatalf("Unhit = %v, want covtest/b listed and covtest/a not", unhit)
	}
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func TestSetHitOrNames(t *testing.T) {
	var s, o Set
	s.Hit(ptC)
	s.Hit(ptA)
	s.Hit(ptA)
	o.Hit(ptB)
	if !s.Has(ptA) || s.Has(ptB) {
		t.Fatalf("Has: a=%v b=%v, want true/false", s.Has(ptA), s.Has(ptB))
	}
	s.Or(&o)
	if got, want := s.Names(), []string{"covtest/a", "covtest/b", "covtest/c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	var empty Set
	if empty.Names() != nil {
		t.Fatalf("empty set names %v", empty.Names())
	}
	var none *Set // a nil set records nothing
	none.Hit(ptA)
	none.Or(&s)
}

// TestRegistryAddHits: a set built from recorded point names (a cached
// fuzz seed's) merges each known point once and ignores unknown names.
func TestRegistryAddHits(t *testing.T) {
	s := SetOf([]string{"covtest/b", "no/such/point", "covtest/b"})
	if got := s.Names(); !reflect.DeepEqual(got, []string{"covtest/b"}) {
		t.Fatalf("SetOf names = %v, want [covtest/b]", got)
	}
	r := NewRegistry()
	r.Merge(&s)
	if count(r, "covtest/b") != 1 || r.HitCount() != 1 {
		t.Fatalf("b = %d, HitCount = %d, want 1/1", count(r, "covtest/b"), r.HitCount())
	}
	if ids, _ := r.Snapshot(); contains(ids, "no/such/point") {
		t.Fatal("unknown name entered the universe")
	}
}

func TestSetHitAllocates(t *testing.T) {
	var s Set
	if n := testing.AllocsPerRun(100, func() { s.Hit(ptB) }); n != 0 {
		t.Fatalf("Hit allocates %.1f times", n)
	}
}

// count returns r's count for the named point.
func count(r *Registry, name string) uint64 {
	ids, counts := r.Snapshot()
	for i, id := range ids {
		if id == name {
			return counts[i]
		}
	}
	return 0
}

// TestHitCount: a registry's counts are per merged set, and HitCount
// follows the distinct points.
func TestHitCount(t *testing.T) {
	r := NewRegistry()
	var s1, s2 Set
	s1.Hit(ptA)
	s1.Hit(ptB)
	s2.Hit(ptA)
	r.Merge(&s1)
	r.Merge(&s2)
	if count(r, "covtest/a") != 2 || count(r, "covtest/b") != 1 || count(r, "covtest/c") != 0 {
		t.Fatalf("counts a=%d b=%d c=%d, want 2/1/0",
			count(r, "covtest/a"), count(r, "covtest/b"), count(r, "covtest/c"))
	}
	if got := r.HitCount(); got != 2 {
		t.Fatalf("HitCount = %d, want 2", got)
	}
	if hit, _ := r.Stats(); hit != 2 {
		t.Fatalf("Stats hit = %d, want 2", hit)
	}
	for _, id := range r.Unhit() {
		if id == "covtest/a" || id == "covtest/b" {
			t.Fatalf("hit point %s listed as unhit", id)
		}
	}
}

// TestRegistryAdd: a private registry handed on with Add leaves the same
// counts as merging every set directly.
func TestRegistryAdd(t *testing.T) {
	direct, local, shared := NewRegistry(), NewRegistry(), NewRegistry()
	var s Set
	s.Hit(ptC)
	for i := 0; i < 3; i++ {
		direct.Merge(&s)
		local.Merge(&s)
	}
	shared.Merge(&s)
	shared.Add(local)
	if count(shared, "covtest/c") != 4 || shared.HitCount() != 1 {
		t.Fatalf("after Add: c=%d HitCount=%d, want 4/1", count(shared, "covtest/c"), shared.HitCount())
	}
	if count(direct, "covtest/c") != 3 {
		t.Fatalf("direct c = %d, want 3", count(direct, "covtest/c"))
	}
}

func TestResetZeroes(t *testing.T) {
	r := NewRegistry()
	var s Set
	s.Hit(ptC)
	r.Merge(&s)
	r.Reset()
	if count(r, "covtest/c") != 0 || r.HitCount() != 0 {
		t.Fatalf("after Reset: c = %d, HitCount = %d", count(r, "covtest/c"), r.HitCount())
	}
	r.Merge(&s)
	if r.HitCount() != 1 {
		t.Fatalf("HitCount after Reset and one merge = %d, want 1", r.HitCount())
	}
}

func TestRegistryResetIsolation(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	var s Set
	s.Hit(ptA)
	r1.Merge(&s)
	r2.Merge(&s)
	r1.Reset()
	if hit, _ := r1.Stats(); hit != 0 || r1.HitCount() != 0 {
		t.Fatalf("registry hit %d (HitCount %d) after Reset", hit, r1.HitCount())
	}
	if count(r2, "covtest/a") != 1 {
		t.Fatal("Reset of one registry changed another")
	}
}

// TestConcurrentHits: concurrent merges into one registry and into
// disjoint ones are exact.
func TestConcurrentHits(t *testing.T) {
	shared, r1, r2 := NewRegistry(), NewRegistry(), NewRegistry()
	const iters = 500
	var wg sync.WaitGroup
	for _, w := range []struct {
		own *Registry
		id  ID
	}{{r1, ptA}, {r2, ptB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Set
			s.Hit(w.id)
			for i := 0; i < iters; i++ {
				w.own.Merge(&s)
				shared.Merge(&s)
			}
		}()
	}
	wg.Wait()
	if count(shared, "covtest/a") != iters || count(shared, "covtest/b") != iters {
		t.Errorf("shared a=%d b=%d, want %d each", count(shared, "covtest/a"), count(shared, "covtest/b"), iters)
	}
	if count(r1, "covtest/a") != iters || count(r1, "covtest/b") != 0 {
		t.Errorf("r1 a=%d b=%d, want %d/0", count(r1, "covtest/a"), count(r1, "covtest/b"), iters)
	}
	if count(r2, "covtest/b") != iters || count(r2, "covtest/a") != 0 {
		t.Errorf("r2 b=%d a=%d, want %d/0", count(r2, "covtest/b"), count(r2, "covtest/a"), iters)
	}
	if shared.HitCount() != 2 {
		t.Errorf("shared HitCount = %d, want 2", shared.HitCount())
	}
}

// TestPointPastCapacityPanics fills the universe and registers one more.
// It must stay the last registration of the package's tests.
func TestPointPastCapacityPanics(t *testing.T) {
	for i := 0; ; i++ {
		_, total := NewRegistry().Stats()
		if total == Capacity {
			break
		}
		Point(fmt.Sprintf("covtest/fill/%d", i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registration past Capacity did not panic")
		}
	}()
	Point("covtest/one_too_many")
}
