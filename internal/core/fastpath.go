package core

import (
	"math"

	"lcsf/internal/stats"
)

// buildFastPath decides whether the sweep can run the decision-first cascade
// (fastAuditPair) and assembles its gates. The fast cascade applies only to
// the paper's default metric pairing — z-score dissimilarity and Mann–Whitney
// similarity — and only when the Mann–Whitney SoA reached the globally
// distinct rank-index level, where a pair's similarity statistic is a pure
// function of its cross count. Everything it precomputes is decision
// machinery, not scores: the |z| gates replay the exact threshold comparisons
// bit-for-bit (see stats.TwoSidedPGate / stats.TwoSidedPGEGate), so the
// flagged set is identical to the slow cascade's — TestFastPathMatchesExact
// and the verify determinism battery pin it.
func (ar *auditRunner) buildFastPath() {
	ar.fastOK = false
	if ar.diss.kind != kindZScore || ar.sim.kind != kindMannWhitney {
		return
	}
	soa := &ar.sim.soa
	if !soa.gridOK || !soa.allDistinct {
		return
	}
	if !ar.zGateFast {
		ar.zGate = stats.NewTwoSidedPGate(ar.cfg.Delta)
		ar.zGateFast = true
	}
	ar.epsGate = stats.NewTwoSidedPGEGate(ar.cfg.Epsilon)
	ar.fastOK = true
}

// fastAuditPair is auditPair for the fast-path configuration: the same
// cascade (dissimilarity → Eta → similarity → LRT) making bit-identical
// decisions and tallies, but deferring every expensive score until it is
// actually observable.
//
//   - The dissimilarity gate compares |z| against the verified Delta band
//     instead of computing the erfc per pair — and is skipped outright when
//     preGated says summaryReject already made the identical decision.
//   - The similarity gate brackets the pair's cross count, first with
//     stats.CrossBoundsCoarse (a prefix-table histogram product, O(buckets/
//     stride) per pair) and, when the coarse bracket touches the Epsilon
//     band's guard region, with stats.CrossBounds (per-element bucket ids).
//     Each bracket maps into |z| space (|z| is exactly monotone in the cross
//     count's distance from its mean, so a bracket's |z| extremes bound
//     every possible statistic) and is decided against the verified Epsilon
//     band. Only pairs both brackets fail to decide run the exact
//     cross-count kernel.
//   - SimScore and DissScore are materialized only when the pair is actually
//     retained (keepScores, or a p-value at or below Alpha) — for typical
//     audits that is a few percent of candidates, and candidates are
//     themselves a fraction of scanned pairs.
//
// preGated asserts the caller already ran summaryReject on this pair under a
// zGateFast plan: the summary replay of the dissimilarity gate and the Eta
// interval consume the same integers and the same float64 rates the cascade
// would (see partition.Summarize), so a surviving pair is guaranteed to pass
// both checks and the cascade skips them — no decision or tally can change,
// the increments it skips are provably zero.
//
// ok reports whether the pair was a candidate, exactly as auditPair does.
// Pairs that are returned but not retained by the caller's filter carry
// zero scores; the caller must not publish them (the engine's append filter
// mirrors the keepScores condition).
//
//lint:hotpath
func (ar *auditRunner) fastAuditPair(ii, jj int, t *pairTally, sc *Scratch, rng *stats.RNG, keepScores, preGated bool) (UnfairPair, bool) {
	a, b := ar.regions[ii], ar.regions[jj]
	cfg := &ar.cfg
	t.scanned++

	if !preGated {
		ga, gb := ar.diss.soa.counts[ii], ar.diss.soa.counts[jj]
		if !ar.zGate.LE(stats.TwoProportionZStat(ga.protected, ga.n, gb.protected, gb.n)) {
			t.dissRejections++
			return UnfairPair{}, false
		}
		if cfg.Eta > 0 && math.Abs(a.PositiveRate()-b.PositiveRate()) <= cfg.Eta {
			t.etaFastPath++
			return UnfairPair{}, false
		}
	}

	soa := &ar.sim.soa
	ra, rb := &soa.ranked[ii], &soa.ranked[jj]
	n1, n2 := ra.N, rb.N
	if n1 == 0 || n2 == 0 {
		// Empty income sample: the exact P is NaN and Pass rejects.
		t.simRejections++
		return UnfairPair{}, false
	}
	cross := -1 // exact cross count, resolved lazily
	sim := 0.0
	simExact := false
	pass := false
	decided := false
	lo, hi := stats.CrossBoundsCoarse(ra, rb)
	if lo == hi {
		cross = lo // degenerate bracket: it IS the cross count
	} else {
		azMin, azMax := azRange(lo, hi, n1, n2)
		pass, decided = ar.epsGate.DecideRange(azMin, azMax)
	}
	if !decided && cross < 0 {
		lo, hi = stats.CrossBounds(ra, rb)
		if lo == hi {
			cross = lo // no colocated mass: the bracket IS the cross count
		} else {
			azMin, azMax := azRange(lo, hi, n1, n2)
			pass, decided = ar.epsGate.DecideRange(azMin, azMax)
			if !decided {
				cross = stats.CrossCountNoTies(ra, rb)
			}
		}
	}
	if cross >= 0 {
		sim = stats.MannWhitneyFromCross(cross, n1, n2).P
		simExact = true
		pass = cfg.Similarity.Pass(sim, cfg.Epsilon)
	}
	if !pass {
		t.simRejections++
		return UnfairPair{}, false
	}

	tau := ar.pairLRT(ii, jj, a, b)
	pval := ar.pairPValue(a, b, tau, t, sc, rng)

	pr := UnfairPair{
		I: a.Index, J: b.Index,
		RateI: a.PositiveRate(), RateJ: b.PositiveRate(),
		SharedI: a.ProtectedShare(), SharedJ: b.ProtectedShare(),
		Tau: tau, P: pval,
	}
	if keepScores || pval <= cfg.Alpha {
		if !simExact {
			if cross < 0 {
				cross = stats.CrossCountNoTies(ra, rb)
			}
			sim = stats.MannWhitneyFromCross(cross, n1, n2).P
		}
		pr.SimScore = sim
		ga, gb := ar.diss.soa.counts[ii], ar.diss.soa.counts[jj]
		pr.DissScore = stats.TwoSidedP(stats.TwoProportionZStat(ga.protected, ga.n, gb.protected, gb.n))
	}
	// Orient the pair so I is the disadvantaged region.
	if pr.RateI > pr.RateJ {
		pr.I, pr.J = pr.J, pr.I
		pr.RateI, pr.RateJ = pr.RateJ, pr.RateI
		pr.SharedI, pr.SharedJ = pr.SharedJ, pr.SharedI
	}
	return pr, true
}

// azRange maps a cross-count bracket [lo, hi] (lo < hi) into the closed |z|
// interval the pair's exact statistic certainly lies in: |z| is exactly
// monotone in the cross count's distance from its mean n1*n2/2, so the
// bracket's endpoints bound |z| — except when the bracket straddles the mean,
// where |z| dips to its minimum at the interior integer(s) nearest the mean.
//
//lint:hotpath
func azRange(lo, hi, n1, n2 int) (azMin, azMax float64) {
	azMin = math.Abs(stats.MannWhitneyZNoTies(lo, n1, n2))
	azMax = math.Abs(stats.MannWhitneyZNoTies(hi, n1, n2))
	if azMax < azMin {
		azMin, azMax = azMax, azMin
	}
	if 2*lo < n1*n2 && 2*hi > n1*n2 {
		azMin = math.Abs(stats.MannWhitneyZNoTies(n1*n2/2, n1, n2))
	}
	return azMin, azMax
}
