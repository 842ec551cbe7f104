package core

import (
	"testing"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// newFastPathRunner builds a runner over the fixture with the rank-index
// caches forced to the globally-distinct level (the pair hint is overridden
// so the global duplicate scan always runs, as it does at production scales)
// and the fast cascade assembled. Fails the test if the fixture cannot reach
// the fast path — the comparisons below would silently prove nothing.
func newFastPathRunner(t testing.TB, p *partition.Partitioning, cfg Config) *auditRunner {
	t.Helper()
	eligible := p.NonEmpty(cfg.MinRegionSize)
	regions := make([]*partition.Region, len(eligible))
	for i, idx := range eligible {
		regions[i] = &p.Regions[idx]
	}
	run := newAuditRunner(cfg, regions)
	run.sim.beginPrepare(run.regions)
	run.diss.beginPrepare(run.regions)
	for i := range run.regions {
		run.sim.prepare(i, run.regions[i])
		run.diss.prepare(i, run.regions[i])
	}
	run.sim.finishPrepare(1 << 40)
	run.diss.finishPrepare(1 << 40)
	run.buildFastPath()
	if !run.fastOK {
		t.Fatal("fixture did not reach the fast path (fastOK false)")
	}
	return run
}

// comparePair fails unless the two kernels agreed field-for-field.
func comparePair(t *testing.T, ctx string, fast, exact UnfairPair, fastOK, exactOK bool) {
	t.Helper()
	if fastOK != exactOK {
		t.Fatalf("%s: candidate verdicts diverged: fast=%v exact=%v", ctx, fastOK, exactOK)
	}
	if fast != exact {
		t.Fatalf("%s: pairs diverged\n fast  %+v\n exact %+v", ctx, fast, exact)
	}
}

// TestFastPathMatchesExact sweeps every pair of the cascade fixture through
// both kernels and requires bit-identical pairs, verdicts, and tallies. The
// fast cascade's claim is not "statistically equivalent" but "the same
// decision procedure executed lazily": gate verdicts replay the exact
// threshold comparisons through verified |z| bands, deferred scores resolve
// through the same kernels, and the Monte-Carlo stream is a function of pair
// identity alone — so any divergence, in any field, is a bug.
func TestFastPathMatchesExact(t *testing.T) {
	p := makeCascadeFixture(t)
	for _, tc := range []struct {
		name       string
		keepScores bool
		cache      int
	}{
		{"keepScores", true, 0},
		{"lazyScores", false, 0},
		{"nullCache", true, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MinRegionSize = 10
			cfg.MCWorlds = 199
			cfg.MCNullCacheSize = tc.cache

			// Two runners, not one: the null cache is stateful, and a shared
			// instance would let the first sweep warm it for the second,
			// skewing the world tallies without any kernel divergence.
			fastRun := newFastPathRunner(t, p, cfg)
			exactRun := newFastPathRunner(t, p, cfg)
			var fastTally, exactTally pairTally
			fastRNG, exactRNG := stats.NewRNG(0), stats.NewRNG(0)
			var fastSc, exactSc Scratch
			candidates := 0
			for ii := range fastRun.regions {
				for jj := ii + 1; jj < len(fastRun.regions); jj++ {
					fast, fok := fastRun.fastAuditPair(ii, jj, &fastTally, &fastSc, fastRNG, tc.keepScores, false)
					exact, eok := exactRun.auditPair(ii, jj, &exactTally, &exactSc, exactRNG)
					if !tc.keepScores && fok {
						// The lazy kernel only materializes scores for pairs
						// its caller would append; mirror the engine's filter
						// before comparing score fields.
						if exact.P > cfg.Alpha {
							exact.SimScore, exact.DissScore = 0, 0
						}
					}
					comparePair(t, tc.name, fast, exact, fok, eok)
					if fok {
						candidates++
					}
				}
			}
			if candidates == 0 {
				t.Fatal("fixture produced no candidates; comparisons prove nothing")
			}
			if fastTally != exactTally {
				t.Fatalf("tallies diverged\n fast  %+v\n exact %+v", fastTally, exactTally)
			}
			if fastSc.nulls.hits != exactSc.nulls.hits || fastSc.nulls.fills != exactSc.nulls.fills {
				t.Fatalf("null lookups diverged: fast %d hits/%d fills, exact %d hits/%d fills",
					fastSc.nulls.hits, fastSc.nulls.fills, exactSc.nulls.hits, exactSc.nulls.fills)
			}
		})
	}
}

// TestFastPathPreGatedMatches pins the summary-gate elision: for every pair
// the summary filter admits under a zGateFast plan, the preGated kernel must
// return exactly what the full fast kernel (and the exact kernel) returns —
// the skipped dissimilarity and Eta checks are provably pass-through for
// such pairs because summaryReject already evaluated the identical
// comparisons on the identical inputs.
func TestFastPathPreGatedMatches(t *testing.T) {
	p := makeCascadeFixture(t)
	cfg := DefaultConfig()
	cfg.MinRegionSize = 10
	cfg.MCWorlds = 199
	cfg.MCNullCacheSize = 0

	run := newFastPathRunner(t, p, cfg)
	run.buildIndex()
	if !run.zGateFast {
		t.Fatal("fast path must set zGateFast")
	}
	checked := 0
	var ungatedTally, preTally, scratch pairTally
	var ungatedSc, preSc Scratch
	ungatedRNG, preRNG := stats.NewRNG(0), stats.NewRNG(0)
	for ii := range run.regions {
		for jj := ii + 1; jj < len(run.regions); jj++ {
			if run.summaryReject(ii, jj, &scratch) {
				continue
			}
			full, fok := run.fastAuditPair(ii, jj, &ungatedTally, &ungatedSc, ungatedRNG, true, false)
			pre, pok := run.fastAuditPair(ii, jj, &preTally, &preSc, preRNG, true, true)
			comparePair(t, "preGated", pre, full, pok, fok)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("summary filter admitted no pairs; elision untested")
	}
	// The skipped checks must have been no-ops on the full kernel too.
	if ungatedTally.dissRejections != 0 || ungatedTally.etaFastPath != 0 {
		t.Fatalf("summary-admitted pairs hit skipped gates: %+v", ungatedTally)
	}
}
