package verify

import (
	"bytes"
	"encoding/json"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/stats"
)

// pairBytes serializes a result's flagged pairs, every field included. Byte
// equality of this encoding is the strongest determinism claim available:
// same pairs, same p-values, same scores, same order.
func pairBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	data, err := json.Marshal(res.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAuditDeterminismAcrossWorkers is the scheduling half of the battery:
// for each fixed engine configuration (candidate plan × null cache), the
// audit over the seeded scenario must produce byte-identical flagged pairs —
// p-values and scores included — at Workers ∈ {1, 2, 4, 8}. Every parallel
// phase (partition aggregation, index build, plan estimation, the
// work-stealing sweep, p-value collection, the BH/FDR sort) merges
// deterministically, so nothing may move: not a pair, not a bit of a
// p-value, regardless of how rows were stolen between workers. Run under
// -race this doubles as the fan-out safety test for the on-demand null
// fills (per-worker memos over one shared cache) and the sharded-counter hot
// paths.
func TestAuditDeterminismAcrossWorkers(t *testing.T) {
	scen := NewScenario(stats.NewRNG(42), DefaultScenarioConfig())

	for _, gen := range []struct {
		name string
		gen  core.CandidateGen
	}{{"dense", core.CandidateDense}, {"indexed", core.CandidateIndexed}} {
		for _, cache := range []struct {
			name string
			size int
		}{{"cache", 4096}, {"nocache", 0}} {
			t.Run(gen.name+"-"+cache.name, func(t *testing.T) {
				var want []byte
				var base *core.Result
				for _, workers := range []int{1, 2, 4, 8} {
					cfg := metamorphicConfig(engineCase{
						workers: workers,
						gen:     gen.gen,
						cache:   cache.size,
					})
					res := runAudit(t, scen, cfg)
					if workers == 1 {
						if len(res.Pairs) == 0 || res.Candidates == 0 {
							t.Fatalf("scenario produced no work (pairs=%d candidates=%d)",
								len(res.Pairs), res.Candidates)
						}
						base, want = res, pairBytes(t, res)
						continue
					}
					if got := pairBytes(t, res); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d: pairs diverged from workers=1\n got %s\nwant %s",
							workers, got, want)
					}
					if res.Candidates != base.Candidates || res.EligibleRegions != base.EligibleRegions {
						t.Fatalf("workers=%d: funnel diverged: candidates %d vs %d, eligible %d vs %d",
							workers, res.Candidates, base.Candidates,
							res.EligibleRegions, base.EligibleRegions)
					}
				}
			})
		}
	}
}
