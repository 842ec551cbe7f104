package core

import (
	"context"
	"testing"

	"lcsf/internal/obs"
)

func newTestCollector() *obs.Collector { return obs.NewCollector(64) }

// TestAuditRecordsPhaseCounters audits an instrumented fixture and checks
// every per-phase counter the observability layer promises, including the
// exhaustiveness invariant: every scanned pair is accounted for by exactly
// one gate rejection, the Eta fast path, or candidacy.
func TestAuditRecordsPhaseCounters(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	// Pin the classic dense sweep with per-pair Monte-Carlo streams: this
	// test asserts the full-triangle scan count and the adaptive early-stop
	// counter, both of which the indexed plan and the shared null cache
	// legitimately change (see TestAuditIndexedFunnelCounters).
	cfg.CandidateGen = CandidateDense
	cfg.MCNullCacheSize = 0
	col := newTestCollector()
	cfg.Collector = col

	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()

	if s.Counter(obs.MAuditRuns) != 1 {
		t.Errorf("runs = %d", s.Counter(obs.MAuditRuns))
	}
	if got := s.Counter(obs.MAuditEligible); got != int64(res.EligibleRegions) {
		t.Errorf("eligible counter = %d, result = %d", got, res.EligibleRegions)
	}
	if got := s.Counter(obs.MAuditCandidates); got != int64(res.Candidates) {
		t.Errorf("candidates counter = %d, result = %d", got, res.Candidates)
	}
	if got := s.Counter(obs.MAuditFlagged); got != int64(len(res.Pairs)) {
		t.Errorf("flagged counter = %d, result = %d", got, len(res.Pairs))
	}

	n := int64(res.EligibleRegions)
	scanned := s.Counter(obs.MAuditPairsScanned)
	if want := n * (n - 1) / 2; scanned != want {
		t.Errorf("scanned = %d, want all %d pairs", scanned, want)
	}
	accounted := s.Counter(obs.MAuditDissRejections) +
		s.Counter(obs.MAuditSimRejections) +
		s.Counter(obs.MAuditEtaFastPath) +
		s.Counter(obs.MAuditCandidates)
	if accounted != scanned {
		t.Errorf("phase counters don't partition the scan: %d accounted of %d scanned", accounted, scanned)
	}

	for _, name := range []string{
		obs.MAuditDissRejections, obs.MAuditSimRejections,
		obs.MAuditEtaFastPath, obs.MAuditMCWorlds, obs.MAuditMCEarlyStops,
	} {
		if s.Counter(name) == 0 {
			t.Errorf("counter %s = 0; fixture should exercise every phase", name)
		}
	}
	if s.Counter(obs.MAuditMCWorlds) > int64(res.Candidates*cfg.MCWorlds) {
		t.Errorf("mc worlds = %d exceeds candidates*m = %d",
			s.Counter(obs.MAuditMCWorlds), res.Candidates*cfg.MCWorlds)
	}

	// Both default gate metrics implement PreparedMetric, so the precompute
	// phase builds exactly two caches per eligible region and times itself.
	if got := s.Counter(obs.MAuditPreparedRegions); got != 2*n {
		t.Errorf("prepared regions = %d, want %d (two metrics x %d regions)", got, 2*n, n)
	}
	if h := s.Histograms[obs.MAuditPrepareSeconds]; h.Count != 1 {
		t.Errorf("audit.prepare_seconds histogram = %+v", h)
	}

	if h := s.Histograms[obs.MAuditSeconds]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("audit.seconds histogram = %+v", h)
	}
	if h := s.Histograms[obs.MAuditShardSeconds]; h.Count < 1 {
		t.Errorf("audit.shard_seconds histogram = %+v", h)
	}

	evs := col.Events().Recent(0)
	if len(evs) != 2 || evs[0].Type != "audit.start" || evs[1].Type != "audit.finish" {
		t.Errorf("events = %+v", evs)
	}
}

// TestAuditIndexedFunnelCounters audits the same fixture under the default
// indexed plan and checks the extended gate funnel: the window join's
// emissions, the summary-bounds rejections, and the invariant tying them to
// the cascade — every emitted pair is either bounds-rejected or scanned, and
// every scanned pair is accounted for by exactly one cascade exit.
func TestAuditIndexedFunnelCounters(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	col := newTestCollector()
	cfg.Collector = col

	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()

	n := int64(res.EligibleRegions)
	total := s.Counter(obs.MAuditIndexPairsTotal)
	if want := n * (n - 1) / 2; total != want {
		t.Errorf("index pairs_total = %d, want %d", total, want)
	}
	emitted := s.Counter(obs.MAuditIndexWindowCandidates)
	bounds := s.Counter(obs.MAuditIndexBoundsRejections)
	scanned := s.Counter(obs.MAuditPairsScanned)
	if emitted <= 0 || emitted > total {
		t.Errorf("window candidates = %d outside (0, %d]", emitted, total)
	}
	if emitted >= total {
		t.Errorf("window join emitted all %d pairs; no pruning happened", total)
	}
	if bounds <= 0 {
		t.Error("summary bounds rejected nothing; fixture should exercise them")
	}
	if scanned != emitted-bounds {
		t.Errorf("scanned = %d, want window candidates - bounds rejections = %d-%d", scanned, emitted, bounds)
	}
	accounted := s.Counter(obs.MAuditDissRejections) +
		s.Counter(obs.MAuditSimRejections) +
		s.Counter(obs.MAuditEtaFastPath) +
		s.Counter(obs.MAuditCandidates)
	if accounted != scanned {
		t.Errorf("cascade counters don't partition the scan: %d accounted of %d scanned", accounted, scanned)
	}

	evs := col.Events().Recent(0)
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if gen := evs[1].Fields["candidate_gen"]; gen != "indexed" {
		t.Errorf("audit.finish candidate_gen = %v, want indexed", gen)
	}
}

// TestAuditNullCacheCounters pins the shared-cache accounting under
// on-demand fills: the audit simulates exactly the distinct (n1, n2, pooled)
// keys of its candidates past the prescreen — computed independently here
// from the keepAll candidate list — each once, every other simulated
// candidate answers from an existing sample, and the counts are the same at
// every worker count.
func TestAuditNullCacheCounters(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 99

	_, run, cands, err := auditEngine(context.Background(), p, cfg, auditHooks{keepAll: true})
	if err != nil {
		t.Fatal(err)
	}
	recycleRunner(run)
	demanded := map[nullKey]bool{}
	for _, pr := range cands {
		if pr.Tau <= cfg.PrescreenTau {
			continue
		}
		a, b := &p.Regions[pr.I], &p.Regions[pr.J]
		n1, n2 := a.N, b.N
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		demanded[nullKey{n1: n1, n2: n2, pooled: a.Positives + b.Positives}] = true
	}
	if len(demanded) == 0 {
		t.Fatal("fixture demands no null keys; the contract proves nothing")
	}

	type counts struct{ keys, worlds, hits, misses, evictions int64 }
	var first counts
	for i, workers := range []int{1, 2, 4, 8} {
		cfg := cfg
		cfg.Workers = workers
		col := newTestCollector()
		cfg.Collector = col
		res, err := Audit(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot()
		got := counts{
			keys:      s.Counter(obs.MMCNullPrewarmKeys),
			worlds:    s.Counter(obs.MMCNullPrewarmWorlds),
			hits:      s.Counter(obs.MMCNullCacheHits),
			misses:    s.Counter(obs.MMCNullCacheMisses),
			evictions: s.Counter(obs.MMCNullCacheEvictions),
		}
		if got.keys != int64(len(demanded)) {
			t.Errorf("workers=%d: simulated keys = %d, want the %d demanded keys", workers, got.keys, len(demanded))
		}
		if want := got.keys * int64(cfg.MCWorlds); got.worlds != want {
			t.Errorf("workers=%d: simulated worlds = %d, want keys x m = %d", workers, got.worlds, want)
		}
		if got.misses != got.keys {
			t.Errorf("workers=%d: misses = %d, want one per simulated key (%d)", workers, got.misses, got.keys)
		}
		simulated := int64(res.Candidates) - s.Counter(obs.MAuditPrescreenSkips)
		if got.hits+got.misses != simulated {
			t.Errorf("workers=%d: lookups = %d hits + %d misses, want %d candidates past the prescreen",
				workers, got.hits, got.misses, simulated)
		}
		if got.evictions != 0 {
			t.Errorf("workers=%d: default-sized cache evicted %d entries on a 12-region audit", workers, got.evictions)
		}
		// Cached p-values come from the shared samples: no per-pair worlds,
		// and never an adaptive early stop.
		if w, e := s.Counter(obs.MAuditMCWorlds), s.Counter(obs.MAuditMCEarlyStops); w != 0 || e != 0 {
			t.Errorf("workers=%d: per-pair mc worlds = %d, early stops = %d, want 0 under the cache", workers, w, e)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("workers=%d: null-cache counts %+v differ from workers=1 %+v", workers, got, first)
		}
	}
}

// TestAuditFDRWorldsExact asserts the FDR path counts full (non-adaptive)
// Monte-Carlo streams: every simulated candidate spends exactly MCWorlds
// worlds and no early stops are recorded.
func TestAuditFDRWorldsExact(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.FDR = 0.10
	cfg.MCWorlds = 99
	// Per-pair streams only: with the shared null cache, worlds are counted
	// once per fresh count signature rather than once per simulated pair
	// (see TestAuditNullCacheCounters).
	cfg.MCNullCacheSize = 0
	col := newTestCollector()
	cfg.Collector = col

	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if s.Counter(obs.MAuditMCEarlyStops) != 0 {
		t.Errorf("FDR audit recorded %d early stops; exact p-values must not stop early",
			s.Counter(obs.MAuditMCEarlyStops))
	}
	simulated := s.Counter(obs.MAuditCandidates) - s.Counter(obs.MAuditPrescreenSkips)
	if got, want := s.Counter(obs.MAuditMCWorlds), simulated*int64(cfg.MCWorlds); got != want {
		t.Errorf("mc worlds = %d, want %d (= %d simulated candidates x %d)",
			got, want, simulated, cfg.MCWorlds)
	}
}

// TestAuditCollectorDoesNotChangeResult runs the same audit bare and
// instrumented; the pairs must be identical (observability is passive).
func TestAuditCollectorDoesNotChangeResult(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199

	bare, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = newTestCollector()
	instr, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Pairs) != len(instr.Pairs) {
		t.Fatalf("instrumentation changed pair count: %d vs %d", len(bare.Pairs), len(instr.Pairs))
	}
	for i := range bare.Pairs {
		if bare.Pairs[i] != instr.Pairs[i] {
			t.Fatalf("instrumentation changed pair %d", i)
		}
	}
}

// TestDefaultCollector exercises the package-level fallback used by
// harnesses that cannot thread a collector through every Config.
func TestDefaultCollector(t *testing.T) {
	col := newTestCollector()
	prev := SetDefaultCollector(col)
	defer SetDefaultCollector(prev)

	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 99
	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().Counter(obs.MAuditRuns) != 1 {
		t.Error("default collector did not receive the audit")
	}

	// An explicit collector takes precedence over the default.
	own := newTestCollector()
	cfg.Collector = own
	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	if own.Snapshot().Counter(obs.MAuditRuns) != 1 {
		t.Error("explicit collector ignored")
	}
	if col.Snapshot().Counter(obs.MAuditRuns) != 1 {
		t.Error("default collector double-counted an explicitly-collected audit")
	}
}

// TestAuditCanceledRecordsEvent cancels an audit up front and checks the
// cancellation is observable.
func TestAuditCanceledRecordsEvent(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	col := newTestCollector()
	cfg.Collector = col

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AuditContext(ctx, p, cfg); err == nil {
		t.Fatal("canceled audit must fail")
	}
	if col.Snapshot().Counter(obs.MAuditCanceled) != 1 {
		t.Error("cancellation not counted")
	}
	evs := col.Events().Recent(0)
	if len(evs) == 0 || evs[len(evs)-1].Type != "audit.canceled" {
		t.Errorf("missing audit.canceled event: %+v", evs)
	}
}

// TestAuditPhaseSecondsInvariant checks the per-phase wall-clock breakdown:
// every pipeline phase publishes exactly one observation per audit, and the
// phases — which are disjoint intervals of the audit's span — sum to no more
// than the total. The sweep-steals counter must also be published (possibly
// zero: a single span per worker steals nothing) whenever a collector is
// attached.
func TestAuditPhaseSecondsInvariant(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.Workers = 4
	col := newTestCollector()
	cfg.Collector = col

	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()

	phases := []string{
		obs.MAuditPhasePartitionSeconds,
		obs.MAuditPhaseIndexSeconds,
		obs.MAuditPhasePrepareSeconds,
		obs.MAuditPhaseSweepSeconds,
		obs.MAuditPhaseFDRSeconds,
	}
	var phaseSum float64
	for _, name := range phases {
		h, ok := s.Histograms[name]
		if !ok || h.Count != 1 {
			t.Errorf("phase %s: want exactly one observation, got %+v", name, h)
			continue
		}
		if h.Sum < 0 {
			t.Errorf("phase %s: negative duration %v", name, h.Sum)
		}
		phaseSum += h.Sum
	}
	// Nulls are simulated inside the sweep; the retired pre-warm phase must
	// stay unobserved rather than report an empty interval.
	if h, ok := s.Histograms[obs.MAuditPhasePrewarmSeconds]; ok {
		t.Errorf("retired phase %s observed: %+v", obs.MAuditPhasePrewarmSeconds, h)
	}
	total := s.Histograms[obs.MAuditSeconds].Sum
	if phaseSum > total {
		t.Errorf("phases sum to %v, more than the audit total %v", phaseSum, total)
	}
	if s.Histograms[obs.MAuditPhaseSweepSeconds].Sum <= 0 {
		t.Error("sweep phase recorded zero duration on a real workload")
	}
	if _, ok := s.Counters[obs.MAuditSweepSteals]; !ok {
		t.Error("audit.sweep.steals not published")
	}
}

// TestAuditSweepStealsCounts drives a full worker fan-out (one span per
// eligible region) and checks the steal counter is wired end-to-end: the
// flush publishes a well-formed count under maximum contention. Whether any
// steal actually occurs depends on scheduling; the steal mechanics
// themselves are pinned deterministically by the rowScheduler unit tests,
// and result-set invariance under stealing by the workers battery in
// internal/verify.
func TestAuditSweepStealsCounts(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 999
	cfg.Workers = 12 // one span per eligible region: every idle worker must steal
	col := newTestCollector()
	cfg.Collector = col

	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Counter(obs.MAuditSweepSteals); got < 0 {
		t.Errorf("steals = %d", got)
	}
}
