package exec

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSeedStreamReplay: a replayed stream draws exactly what a freshly
// seeded source draws, past the first chunk, from several goroutines at
// once, and the scheduler's Intn picks on top of it agree too.
func TestSeedStreamReplay(t *testing.T) {
	c := streamCache{m: make(map[int64]*seedStream)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, seed := range []int64{1, 7, -3} {
				want, got := rand.New(rand.NewSource(seed)), rand.New(c.source(seed))
				for i := 0; i < 3*streamChunk; i++ {
					if w, g := want.Intn(i%5+1), got.Intn(i%5+1); w != g {
						t.Errorf("seed %d draw %d: replayed %d, seeded %d", seed, i, g, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSeedStreamCacheBound: the cache holds at most maxSeedStreams
// seeds, evicting the oldest, and an evicted seed replays correctly.
func TestSeedStreamCacheBound(t *testing.T) {
	c := streamCache{m: make(map[int64]*seedStream)}
	for seed := int64(0); seed < 2*maxSeedStreams; seed++ {
		c.source(seed).Int63()
	}
	if len(c.m) != maxSeedStreams || len(c.order) != maxSeedStreams {
		t.Fatalf("%d streams (%d in order), want %d", len(c.m), len(c.order), maxSeedStreams)
	}
	if _, ok := c.m[0]; ok {
		t.Fatal("the oldest seed was not evicted")
	}
	if got, want := c.source(0).Int63(), rand.NewSource(0).Int63(); got != want {
		t.Fatalf("evicted seed replays %d, want %d", got, want)
	}
}
