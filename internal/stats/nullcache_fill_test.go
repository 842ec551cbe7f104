package stats

import (
	"sort"
	"testing"
)

// TestFillPairNullMatchesCacheEntry asserts a batched fill reproduces, byte
// for byte, the p-values a cache produces for the same (seed, worlds, key) —
// and that both agree with the uncached reference oracle.
func TestFillPairNullMatchesCacheEntry(t *testing.T) {
	const seed, worlds = 0xF111ED, 257
	cache := NewPairNullCache(seed, worlds, 64)
	buf := make([]float64, worlds)
	cases := []struct{ n1, n2, pos int }{
		{120, 340, 55}, {340, 120, 55}, {1, 1, 0}, {200, 200, 400}, {77, 1000, 300},
	}
	for _, c := range cases {
		FillPairNull(buf, seed, c.n1, c.n2, c.pos)
		if !sort.Float64sAreSorted(buf) {
			t.Fatalf("FillPairNull(%d,%d,%d) not sorted", c.n1, c.n2, c.pos)
		}
		for _, observed := range []float64{0, 0.5, 2, 10, buf[0], buf[worlds-1], buf[worlds/2]} {
			idx := sort.SearchFloat64s(buf, observed)
			want := float64(1+worlds-idx) / float64(worlds+1)
			got, _ := cache.PValue(c.n1, c.n2, c.pos, observed)
			if got != want {
				t.Fatalf("key (%d,%d,%d) obs %v: cache p=%v, FillPairNull p=%v", c.n1, c.n2, c.pos, observed, got, want)
			}
			if ref := NullCacheReferenceP(seed, worlds, c.n1, c.n2, c.pos, observed); got != ref {
				t.Fatalf("key (%d,%d,%d) obs %v: cache p=%v, reference p=%v", c.n1, c.n2, c.pos, observed, got, ref)
			}
		}
	}
}

// TestFillPairNullZeroAlloc pins the batched fill path at zero allocations:
// a fill writes into caller memory, so the cache's one allocation per key is
// the sample it retains.
func TestFillPairNullZeroAlloc(t *testing.T) {
	buf := make([]float64, 999)
	if n := testing.AllocsPerRun(20, func() {
		FillPairNull(buf, 0xA110C, 150, 220, 91)
	}); n != 0 {
		t.Fatalf("FillPairNull allocates %.1f per run, want 0", n)
	}
}

// TestPairNullCacheSampleMatchesPValue verifies the sample lookup: the first
// call for a key misses and a normalized duplicate hits the same immutable
// sample, PValue is NullTailP over that sample, Capacity reflects the
// rounded-up entry bound, and a zero-worlds cache answers no sample.
func TestPairNullCacheSampleMatchesPValue(t *testing.T) {
	const seed, worlds = 0xBEE5, 99
	c := NewPairNullCache(seed, worlds, 64)

	first, hit := c.Sample(80, 120, 40)
	if hit || len(first) != worlds || !sort.Float64sAreSorted(first) {
		t.Fatalf("first Sample: hit=%v len=%d sorted=%v, want a fresh sorted %d-world sample",
			hit, len(first), sort.Float64sAreSorted(first), worlds)
	}
	again, hit := c.Sample(120, 80, 40)
	if !hit || &again[0] != &first[0] {
		t.Fatal("Sample of a normalized-duplicate key should hit the same sample")
	}
	if h, m, e := c.Stats(); h != 1 || m != 1 || e != 0 {
		t.Fatalf("stats = (%d hits, %d misses, %d evictions), want (1, 1, 0)", h, m, e)
	}
	for _, observed := range []float64{-1, 0, 1.25, first[worlds/2], first[worlds-1], 1e9} {
		p, hit := c.PValue(80, 120, 40, observed)
		if !hit || p != NullTailP(first, observed) {
			t.Fatalf("obs %v: PValue = (%v, %v), want a hit with NullTailP %v", observed, p, hit, NullTailP(first, observed))
		}
		if ref := NullCacheReferenceP(seed, worlds, 80, 120, 40, observed); p != ref {
			t.Fatalf("obs %v: PValue %v, reference %v", observed, p, ref)
		}
	}

	if got := c.Capacity(); got != 64 {
		t.Fatalf("Capacity()=%d, want 64", got)
	}
	small := NewPairNullCache(seed, worlds, 3)
	if got := small.Capacity(); got != nullCacheShards {
		t.Fatalf("small cache Capacity()=%d, want %d", got, nullCacheShards)
	}
	if s, hit := NewPairNullCache(seed, 0, 8).Sample(10, 10, 5); s != nil || hit {
		t.Fatalf("zero-worlds cache answered (%v, %v), want (nil, false)", s, hit)
	}
	if p := NullTailP(nil, 3); p != 1 {
		t.Fatalf("NullTailP of an empty sample = %v, want 1", p)
	}
}

// TestPairNullCacheSampleZeroAlloc pins the hit path of the sample lookup —
// read lock, map probe, atomics, binary search — at zero allocations.
func TestPairNullCacheSampleZeroAlloc(t *testing.T) {
	c := NewPairNullCache(5, 199, 64)
	c.Sample(50, 60, 20)
	allocs := testing.AllocsPerRun(100, func() {
		s, _ := c.Sample(50, 60, 20)
		NullTailP(s, 2.5)
	})
	if allocs != 0 {
		t.Fatalf("Sample hit path allocates %.1f per call", allocs)
	}
}
