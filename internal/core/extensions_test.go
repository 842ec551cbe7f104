package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

func TestKolmogorovSmirnovSimilarity(t *testing.T) {
	p := makeRegions(t, 400)
	m := KolmogorovSmirnovSimilarity{}
	if m.Name() != "kolmogorov-smirnov" {
		t.Error("name")
	}
	samePoor := m.Score(&p.Regions[0], &p.Regions[1])
	poorRich := m.Score(&p.Regions[0], &p.Regions[2])
	if !m.Pass(samePoor, 0.001) {
		t.Errorf("same-income regions should pass: %v", samePoor)
	}
	if m.Pass(poorRich, 0.001) {
		t.Errorf("poor-vs-rich should fail: %v", poorRich)
	}
	if m.Pass(math.NaN(), 0.001) {
		t.Error("NaN must not pass")
	}
}

func TestAuditWithKSSimilarityFindsPlantedPair(t *testing.T) {
	p := makeRegions(t, 500)
	cfg := DefaultConfig()
	cfg.Similarity = KolmogorovSmirnovSimilarity{}
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].I != 0 || res.Pairs[0].J != 1 {
		t.Errorf("KS-gated audit pairs = %+v, want the planted (0,1)", res.Pairs)
	}
}

func TestAuditFDRMode(t *testing.T) {
	p := makeRegions(t, 500)
	cfg := DefaultConfig()
	cfg.FDR = 0.05
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("FDR audit pairs = %d, want the planted one", len(res.Pairs))
	}
	if res.Pairs[0].I != 0 || res.Pairs[0].J != 1 {
		t.Errorf("FDR audit found wrong pair: %+v", res.Pairs[0])
	}
}

func TestAuditFDRReducesNullFindings(t *testing.T) {
	// Null data with many candidate pairs: per-pair alpha flags a few false
	// positives across repeated worlds; BH at the same level flags fewer.
	rng := stats.NewRNG(55)
	var obs []partition.Observation
	cells := 16
	for cell := 0; cell < cells; cell++ {
		minorityP := 0.1
		if cell%2 == 0 {
			minorityP = 0.8
		}
		for i := 0; i < 400; i++ {
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(float64(cell)+0.5, 0.5),
				Positive:  rng.Bernoulli(0.62),
				Protected: rng.Bernoulli(minorityP),
				Income:    50000 + 9000*rng.NormFloat64(),
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(float64(cells), 1)), cells, 1)
	p := partition.ByGrid(grid, obs, partition.Options{Seed: 6})

	alphaCfg := DefaultConfig()
	alphaCfg.Alpha = 0.05
	alphaCfg.Eta = 0 // let every candidate through to the test
	alphaRes, err := Audit(p, alphaCfg)
	if err != nil {
		t.Fatal(err)
	}
	fdrCfg := alphaCfg
	fdrCfg.FDR = 0.05
	fdrRes, err := Audit(p, fdrCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fdrRes.Pairs) > len(alphaRes.Pairs) {
		t.Errorf("FDR (%d) should not flag more than per-pair alpha (%d) on null data",
			len(fdrRes.Pairs), len(alphaRes.Pairs))
	}
}

func TestAuditFDRDeterministicAcrossWorkers(t *testing.T) {
	p := makeRegions(t, 300)
	cfg := DefaultConfig()
	cfg.FDR = 0.1
	var prev *Result
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		res, err := Audit(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(prev.Pairs) != len(res.Pairs) {
				t.Fatal("FDR result varies with workers")
			}
			for i := range prev.Pairs {
				if prev.Pairs[i] != res.Pairs[i] {
					t.Fatal("FDR pair varies with workers")
				}
			}
		}
		prev = res
	}
}

func TestWelchTSimilarity(t *testing.T) {
	p := makeRegions(t, 400)
	m := WelchTSimilarity{}
	if m.Name() != "welch-t" {
		t.Error("name")
	}
	if !m.Pass(m.Score(&p.Regions[0], &p.Regions[1]), 0.001) {
		t.Error("same-income regions should pass")
	}
	if m.Pass(m.Score(&p.Regions[0], &p.Regions[2]), 0.001) {
		t.Error("poor-vs-rich should fail")
	}
	if m.Pass(math.NaN(), 0.001) {
		t.Error("NaN must not pass")
	}
}

func TestAuditWithWelchSimilarity(t *testing.T) {
	p := makeRegions(t, 500)
	cfg := DefaultConfig()
	cfg.Similarity = WelchTSimilarity{}
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].I != 0 {
		t.Errorf("Welch-gated audit = %+v", res.Pairs)
	}
}

func TestAuditContextCancellation(t *testing.T) {
	p := makeRegions(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AuditContext(ctx, p, DefaultConfig()); err == nil {
		t.Error("cancelled context should abort the audit")
	}
	// A cancel with a cause reports the cause, not a bare context.Canceled.
	why := errors.New("caller gave up")
	cctx, ccancel := context.WithCancelCause(context.Background())
	ccancel(why)
	if _, err := AuditContext(cctx, p, DefaultConfig()); !errors.Is(err, why) {
		t.Errorf("cancel with cause returned %v, want %v", err, why)
	}
	// A live context behaves exactly like Audit.
	res, err := AuditContext(context.Background(), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Audit(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(plain.Pairs) {
		t.Error("context variant changed the result")
	}
}
