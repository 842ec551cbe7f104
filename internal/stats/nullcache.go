package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// PairNullCache memoizes sorted Monte-Carlo null samples of the pairwise
// likelihood-ratio statistic. The null distribution of PairLRT depends only on
// the integer triple (n1, n2, pooledPositives) — both regions' counts are
// drawn from Binomial(n, pooledPositives/(n1+n2)) — so audits over universes
// with repeated count signatures can share one simulation per signature and
// answer each pair's p-value by binary search instead of re-simulating m
// worlds.
//
// Determinism: each entry's simulation stream is seeded purely from the cache
// seed and the normalized key, so the sample — and every p-value derived from
// it — is a function of (seed, worlds, key) alone, independent of which
// goroutine populates the entry, of arrival order, and of eviction history.
// The cache is safe for concurrent use.
//
// Capacity is bounded: entries beyond the configured size evict the least
// recently used entry of their shard (approximate LRU — recency ticks are
// process-wide, eviction is per-shard). A re-simulated entry reproduces the
// evicted one exactly, so eviction affects cost, never values.
type PairNullCache struct {
	seed     uint64
	worlds   int
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	tick      atomic.Uint64

	shards [nullCacheShards]nullCacheShard
}

// nullCacheShards spreads lock contention; must be a power of two.
const nullCacheShards = 16

type nullCacheShard struct {
	mu      sync.RWMutex
	entries map[pairNullKey]*nullCacheEntry //lint:guardedby mu
	// keys mirrors the map's key set in insertion order so eviction scans a
	// slice rather than ranging over the map (map iteration order is
	// nondeterministic; the victim choice must not be).
	keys []pairNullKey //lint:guardedby mu
}

// pairNullKey is the normalized cache key: n1 <= n2 (the null is symmetric in
// the two regions' sizes given the pooled count).
type pairNullKey struct {
	n1, n2          int
	pooledPositives int
}

type nullCacheEntry struct {
	once     sync.Once
	sorted   []float64 // ascending null statistics, length = worlds
	lastUsed atomic.Uint64
}

// NewPairNullCache returns a cache producing worlds-long null samples seeded
// from seed. maxEntries bounds the number of retained keys (values below the
// shard count are raised to it so every shard can hold at least one entry).
func NewPairNullCache(seed uint64, worlds, maxEntries int) *PairNullCache {
	if maxEntries < nullCacheShards {
		maxEntries = nullCacheShards
	}
	c := &PairNullCache{
		seed:     seed,
		worlds:   worlds,
		perShard: (maxEntries + nullCacheShards - 1) / nullCacheShards,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[pairNullKey]*nullCacheEntry) //lint:locksafe-ok constructor: no concurrent access before the cache is returned
	}
	return c
}

// Worlds returns the per-entry sample length m.
func (c *PairNullCache) Worlds() int { return c.worlds }

// Stats reports cumulative cache traffic: lookups answered by an existing
// entry, lookups that simulated a fresh one, and entries evicted.
func (c *PairNullCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// Sample returns the ascending null sample for (n1, n2, pooledPositives),
// simulating it on first use. hit reports whether the entry already existed
// (false exactly once per key per residency in the cache); concurrent
// callers of a fresh key wait on the one simulation. The sample is shared
// and immutable — callers must not modify it — and a function of
// (seed, worlds, key) alone. A cache with no worlds answers an empty sample.
//
//lint:hotpath
func (c *PairNullCache) Sample(n1, n2, pooledPositives int) (sorted []float64, hit bool) {
	if c.worlds <= 0 {
		return nil, false
	}
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	key := pairNullKey{n1: n1, n2: n2, pooledPositives: pooledPositives}
	e, hit := c.lookupOrInsert(key)
	e.once.Do(func() { e.sorted = c.simulate(key) }) //lint:hotpathalloc-ok one simulation per key residency, amortized over all hits
	e.lastUsed.Store(c.tick.Add(1))
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e.sorted, hit
}

// PValue returns the add-one Monte-Carlo p-value of an observed statistic
// against the key's null sample (see Sample and NullTailP); hit is Sample's.
// A cache with no worlds answers p = 1.
//
//lint:hotpath
func (c *PairNullCache) PValue(n1, n2, pooledPositives int, observed float64) (p float64, hit bool) {
	sorted, hit := c.Sample(n1, n2, pooledPositives)
	return NullTailP(sorted, observed), hit
}

// NullTailP is the add-one Monte-Carlo p-value of an observed statistic
// against an ascending null sample of m worlds,
//
//	p = (1 + #{tau_null >= observed}) / (m + 1)
//
// — the same estimator as MonteCarloP, with the count answered by binary
// search. An empty sample answers 1.
//
//lint:hotpath
func NullTailP(sorted []float64, observed float64) float64 {
	idx := sort.SearchFloat64s(sorted, observed) // first index with value >= observed
	return float64(1+len(sorted)-idx) / float64(len(sorted)+1)
}

// lookupOrInsert finds the entry for key, inserting an empty one (and
// possibly evicting its shard's least-recently-used entry) when absent.
// Exactly one caller per key residency observes hit == false.
func (c *PairNullCache) lookupOrInsert(key pairNullKey) (e *nullCacheEntry, hit bool) { //lint:hotpathalloc-ok insert/evict is once per key residency, amortized
	sh := &c.shards[nullKeyHash(key)&(nullCacheShards-1)]
	sh.mu.RLock()
	e = sh.entries[key]
	sh.mu.RUnlock()
	if e != nil {
		return e, true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.entries[key]; e != nil {
		return e, true // another goroutine inserted between the locks
	}
	if len(sh.keys) >= c.perShard {
		victim := 0
		oldest := sh.entries[sh.keys[0]].lastUsed.Load()
		for i := 1; i < len(sh.keys); i++ {
			if used := sh.entries[sh.keys[i]].lastUsed.Load(); used < oldest {
				victim, oldest = i, used
			}
		}
		delete(sh.entries, sh.keys[victim])
		sh.keys[victim] = sh.keys[len(sh.keys)-1]
		sh.keys = sh.keys[:len(sh.keys)-1]
		c.evictions.Add(1)
	}
	e = &nullCacheEntry{}
	sh.entries[key] = e
	sh.keys = append(sh.keys, key)
	return e, false
}

// simulate draws the key's null sample with a generator seeded from
// (cache seed, key) alone and sorts it ascending for binary search.
func (c *PairNullCache) simulate(key pairNullKey) []float64 {
	out := make([]float64, c.worlds)
	FillPairNull(out, c.seed, key.n1, key.n2, key.pooledPositives)
	return out
}

// FillPairNull fills dst with the sorted null sample of the pairwise LRT
// statistic for the key (n1, n2, pooledPositives) under cache seed — one
// world per element of dst, drawn in a single batched pass and sorted
// ascending. It is the allocation-free core of PairNullCache.simulate: a
// cache constructed with this seed and worlds == len(dst) holds exactly this
// sample for the key, so p-value consumers stay bit-identical whether an
// entry was simulated for the first time or re-simulated after eviction. The
// key is normalized (n1 <= n2) exactly as the cache normalizes it.
func FillPairNull(dst []float64, seed uint64, n1, n2, pooledPositives int) {
	if len(dst) == 0 {
		return
	}
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	key := pairNullKey{n1: n1, n2: n2, pooledPositives: pooledPositives}
	var rng RNG
	rng.Seed(nullCacheSeed(seed, key))
	pooledRate := float64(key.pooledPositives) / float64(key.n1+key.n2)
	if key.n1 > 0 && key.n1+key.n2 <= nullTableMaxN {
		fillPairNullTabled(dst, &rng, key.n1, key.n2, pooledRate)
	} else {
		for i := range dst {
			dst[i] = pairNullDraw(&rng, key.n1, key.n2, pooledRate)
		}
	}
	sort.Float64s(dst)
}

// nullTableMaxN bounds the region sizes for which fillPairNullTabled's
// stack tables apply; larger keys fall back to the direct per-world PairLRT.
const nullTableMaxN = 2048

// fillPairNullTabled is FillPairNull's hot inner loop for keys with
// n1+n2 <= nullTableMaxN. Within one fill the region sizes are fixed, so
// every logarithm PairLRT evaluates is a function of the drawn counts alone:
// the alternative-hypothesis terms depend only on k1 (respectively k2), and
// the null terms only on the pooled sum s = k1+k2. The tables memoize those
// values lazily — each entry is computed by the exact expression PairLRT
// uses, and the statistic is assembled with the same operations in the same
// order, so every world is bit-identical to pairNullDraw's; only repeated
// math.Log evaluations are saved (the draws concentrate around the binomial
// mean, so a fill of m worlds touches far fewer than m distinct entries).
// The tables live on the stack, keeping the fill allocation-free.
func fillPairNullTabled(dst []float64, rng *RNG, n1, n2 int, pooledRate float64) {
	var la1, la2 [nullTableMaxN + 1]float64 // MaxBernoulliLogLik(k, n1|n2)
	var lp, lq [nullTableMaxN + 1]float64   // Log(pooled), Log(1-pooled) by s
	var la1ok, la2ok, lsok [nullTableMaxN + 1]bool
	n := n1 + n2
	for i := range dst {
		k1 := rng.Binomial(n1, pooledRate)
		k2 := rng.Binomial(n2, pooledRate)
		s := k1 + k2
		if !lsok[s] {
			rho := float64(s) / float64(n)
			lp[s], lq[s] = math.Log(rho), math.Log(1-rho)
			lsok[s] = true
		}
		if !la1ok[k1] {
			la1[k1], la1ok[k1] = MaxBernoulliLogLik(k1, n1), true
		}
		if !la2ok[k2] {
			la2[k2], la2ok[k2] = MaxBernoulliLogLik(k2, n2), true
		}
		// BernoulliLogLik(k, n, rho) with rho in (0,1) guaranteed whenever a
		// guarded term is taken: k > 0 implies s > 0 and n-k > 0 implies
		// s < n, so the -Inf branches are unreachable and each term reduces
		// to the same guarded multiply-adds, from the same zero value.
		var b1, b2 float64
		if k1 > 0 {
			b1 = float64(k1) * lp[s]
		}
		if n1-k1 > 0 {
			b1 += float64(n1-k1) * lq[s]
		}
		if k2 > 0 {
			b2 = float64(k2) * lp[s]
		}
		if n2-k2 > 0 {
			b2 += float64(n2-k2) * lq[s]
		}
		dst[i] = LogLikRatio(b1+b2, la1[k1]+la2[k2])
	}
}

// Capacity returns the maximum number of entries the cache retains before
// evicting (the configured bound rounded up to a multiple of the shard
// count). The audit engine bounds each sweep worker's private memo of
// samples by it.
func (c *PairNullCache) Capacity() int {
	return c.perShard * nullCacheShards
}

// NullCacheReferenceP computes, with no cache at all, the p-value a
// PairNullCache constructed with the same seed and worlds returns for the
// key (n1, n2, pooledPositives) at the observed statistic. It re-derives the
// key-seeded stream and counts exceedances directly, so it is the oracle the
// verification harness fuzzes PairNullCache against: cached, evicted, and
// re-simulated lookups must all be bit-identical to this uncached reference.
func NullCacheReferenceP(seed uint64, worlds, n1, n2, pooledPositives int, observed float64) float64 {
	if worlds <= 0 {
		return 1
	}
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	key := pairNullKey{n1: n1, n2: n2, pooledPositives: pooledPositives}
	rng := NewRNG(nullCacheSeed(seed, key))
	pooledRate := float64(key.pooledPositives) / float64(key.n1+key.n2)
	return PairMonteCarloP(rng, observed, worlds, key.n1, key.n2, pooledRate)
}

// nullCacheSeed derives an entry's RNG seed from the cache seed and the
// normalized key — an FNV-style mix over the three key integers, salted
// differently from the audit engine's per-pair seed derivation so the cached
// and per-pair streams never alias.
func nullCacheSeed(seed uint64, key pairNullKey) uint64 {
	h := seed ^ 0x9E2AC4F1D7
	h = h*0x100000001b3 ^ uint64(key.n1)
	h = h*0x100000001b3 ^ uint64(key.n2)
	h = h*0x100000001b3 ^ uint64(key.pooledPositives)
	return h
}

// nullKeyHash spreads keys across shards (distinct from nullCacheSeed so
// shard placement and stream seeding are uncorrelated).
func nullKeyHash(key pairNullKey) uint64 {
	h := uint64(0x517cc1b727220a95)
	h = (h ^ uint64(key.n1)) * 0x2545F4914F6CDD1D
	h = (h ^ uint64(key.n2)) * 0x2545F4914F6CDD1D
	h = (h ^ uint64(key.pooledPositives)) * 0x2545F4914F6CDD1D
	return h ^ h>>32
}
