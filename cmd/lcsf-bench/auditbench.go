package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/obs"
)

// auditBenchSizes are the audit universe sizes the perf-trajectory file
// tracks. R=100 is the smoke size, R=400 the headline the README's perf notes
// quote, R=1000 the half-million-pair stress point (kept comparable across
// revisions), R=3000 the 4.5-million-pair size only the indexed candidate
// path makes practical, and R=10000 the 50-million-pair scale point added
// with the batched-null/SoA engine.
var auditBenchSizes = []int{100, 400, 1000, 3000, 10000}

// auditBenchMaxSize is the opt-in top size (-audit-bench-full): half a
// billion enumerable pairs, practical only because the indexed plan prunes
// the triangle before the cascade. It runs with CandidateIndexed pinned
// explicitly — at this scale a dense fallback would take hours, so the row
// documents the indexed path and nothing else.
const auditBenchMaxSize = 100000

// auditBenchResult is one row of BENCH_audit.json: the cost of one full audit
// at a given region count under DefaultConfig, the derived pair throughput,
// and the candidate-generation statistics of one instrumented run — how many
// pairs the window join emitted, the fraction of the full triangle pruned
// before the gate cascade, the shared null cache's traffic, and its fills
// (the distinct keys the sweep simulated on demand and the worlds drawn for
// them; the JSON names keep their pre-warm-era spelling). Workers records the sweep parallelism the row ran with so rows from
// differently-sized machines are comparable.
type auditBenchResult struct {
	Regions     int     `json:"regions"`
	Pairs       int     `json:"pairs"`
	Workers     int     `json:"workers"`
	CPUs        int     `json:"cpus"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	PairsPerSec float64 `json:"pairs_per_sec"`
	// ScalingEfficiency is set on worker-matrix rows: the row's speedup over
	// the matching workers=1 row divided by the ideal speedup min(workers,
	// cpus) — 1.0 is perfectly linear scaling, and the ideal accounts for
	// worker counts beyond the machine's cores (where the honest ideal is
	// flat, not linear).
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	// PhaseSeconds is the instrumented run's wall-clock breakdown by
	// pipeline phase (partition, index, prepare, sweep, fdr). Rows recorded
	// before null fills moved into the sweep also carry a prewarm phase.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`

	CandidateGen     string  `json:"candidate_gen"`
	WindowCandidates int64   `json:"window_candidates"`
	PairsScanned     int64   `json:"pairs_scanned"`
	PruningRatio     float64 `json:"pruning_ratio"`
	CacheHits        int64   `json:"mc_null_cache_hits"`
	CacheMisses      int64   `json:"mc_null_cache_misses"`
	CacheHitRate     float64 `json:"mc_null_cache_hit_rate"`
	PrewarmKeys      int64   `json:"mc_null_prewarm_keys"`
	PrewarmWorlds    int64   `json:"mc_null_prewarm_worlds"`
}

type auditBenchFile struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPUs       int                `json:"cpus"`
	Config     string             `json:"config"`
	Benchmarks []auditBenchResult `json:"benchmarks"`
	// DeltaBenchmarks is the incremental-engine trajectory -delta-bench
	// appends alongside the cold-audit rows.
	DeltaBenchmarks []deltaBenchResult `json:"delta_benchmarks,omitempty"`
}

// runAuditBench benchmarks one full audit of the R-region dense universe
// via the testing package's benchmark driver so ns/op and allocs/op come from
// the same machinery as `go test -bench`. An untimed warmup audit runs first:
// it populates the partition layer's lazy per-region caches and the engine's
// runner pool, so the timed rows report the steady state — allocations
// bounded by worker count, not by R. cfg should be DefaultConfig modulo the
// candidate-generation pin of the top size.
func runAuditBench(regions int, cfg core.Config) (auditBenchResult, error) {
	p := experiments.DenseAuditPartitioning(regions, 1)
	if _, err := core.Audit(p, cfg); err != nil {
		return auditBenchResult{}, err
	}
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Audit(p, cfg); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return auditBenchResult{}, benchErr
	}
	pairs := regions * (regions - 1) / 2
	ns := br.NsPerOp()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := auditBenchResult{
		Regions:     regions,
		Pairs:       pairs,
		Workers:     workers,
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NsPerOp:     ns,
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if ns > 0 {
		res.PairsPerSec = float64(pairs) / (float64(ns) / 1e9)
	}

	// One instrumented run (outside the timing loop) to record the candidate
	// funnel: window emissions, pairs surviving to the cascade, the null
	// cache's hit rate, and the null keys the sweep simulated.
	col := obs.NewCollector(16)
	icfg := cfg
	icfg.Collector = col
	if _, err := core.Audit(p, icfg); err != nil {
		return auditBenchResult{}, err
	}
	s := col.Snapshot()
	res.PairsScanned = s.Counter(obs.MAuditPairsScanned)
	if total := s.Counter(obs.MAuditIndexPairsTotal); total > 0 {
		res.CandidateGen = "indexed"
		res.WindowCandidates = s.Counter(obs.MAuditIndexWindowCandidates)
		res.PruningRatio = float64(total-res.WindowCandidates) / float64(total)
	} else {
		res.CandidateGen = "dense"
		res.WindowCandidates = res.PairsScanned
	}
	res.CacheHits = s.Counter(obs.MMCNullCacheHits)
	res.CacheMisses = s.Counter(obs.MMCNullCacheMisses)
	if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(lookups)
	}
	res.PrewarmKeys = s.Counter(obs.MMCNullPrewarmKeys)
	res.PrewarmWorlds = s.Counter(obs.MMCNullPrewarmWorlds)
	res.PhaseSeconds = map[string]float64{}
	for name, metric := range map[string]string{
		"partition": obs.MAuditPhasePartitionSeconds,
		"index":     obs.MAuditPhaseIndexSeconds,
		"prepare":   obs.MAuditPhasePrepareSeconds,
		"sweep":     obs.MAuditPhaseSweepSeconds,
		"fdr":       obs.MAuditPhaseFDRSeconds,
	} {
		if h, ok := s.Histograms[metric]; ok {
			res.PhaseSeconds[name] = h.Sum
		}
	}
	return res, nil
}

// auditBenchMatrixRegions is the size the worker-scaling matrix runs at:
// large enough that the sweep dominates (so scaling reflects the parallel
// pipeline, not fixed setup costs), small enough that four extra timed rows
// stay affordable.
const auditBenchMatrixRegions = 3000

// auditBenchMatrixWorkers is the worker counts the scaling matrix sweeps.
// The workers=1 row doubles as the single-core reference row the bench gate
// and the README's perf notes quote.
var auditBenchMatrixWorkers = []int{1, 2, 4, 8}

// idealSpeedup is the honest linear-scaling ceiling for a worker count on
// this machine: workers beyond the core count cannot add speedup, so the
// ideal flattens at min(workers, cpus). Efficiency normalized this way stays
// meaningful on small CI boxes (on a 1-CPU machine every worker count has an
// ideal of 1× and efficiency measures pure scheduling overhead).
func idealSpeedup(workers int) float64 {
	if cpus := runtime.NumCPU(); workers > cpus {
		workers = cpus
	}
	if workers < 1 {
		workers = 1
	}
	return float64(workers)
}

// writeAuditBench runs the dense-audit benchmark at every tracked size —
// plus, when full is set, the opt-in indexed-only top size — and writes the
// results as indented JSON to path, echoing each row to stdout as it lands so
// long runs show progress.
func writeAuditBench(path string, full bool) error {
	out := auditBenchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Config:    "DefaultConfig",
	}
	// Keep the delta rows of an existing trajectory file; only the cold-audit
	// section is regenerated here (-delta-bench mirrors this).
	if data, err := os.ReadFile(path); err == nil {
		var prev auditBenchFile
		if json.Unmarshal(data, &prev) == nil {
			out.DeltaBenchmarks = prev.DeltaBenchmarks
		}
	}
	sizes := auditBenchSizes
	if full {
		sizes = append(append([]int(nil), sizes...), auditBenchMaxSize)
	}
	for _, r := range sizes {
		cfg := core.DefaultConfig()
		if r >= auditBenchMaxSize {
			cfg.CandidateGen = core.CandidateIndexed
		}
		if r == auditBenchMatrixRegions {
			// The matrix size gets one row per worker count instead of a
			// single machine-default row, so the trajectory records scaling,
			// not just throughput, and every (regions, workers) key is unique.
			var base float64
			for _, w := range auditBenchMatrixWorkers {
				wcfg := cfg
				wcfg.Workers = w
				res, err := runAuditBench(r, wcfg)
				if err != nil {
					return fmt.Errorf("R=%d workers=%d: %w", r, w, err)
				}
				if w == 1 {
					base = res.PairsPerSec
				}
				if base > 0 {
					res.ScalingEfficiency = (res.PairsPerSec / base) / idealSpeedup(w)
				}
				fmt.Printf("audit-bench R=%d workers=%d: %.3fs/op, %.0f pairs/sec, scaling efficiency %.2f (sweep %.3fs)\n",
					r, w, float64(res.NsPerOp)/1e9, res.PairsPerSec, res.ScalingEfficiency, res.PhaseSeconds["sweep"])
				out.Benchmarks = append(out.Benchmarks, res)
			}
			continue
		}
		res, err := runAuditBench(r, cfg)
		if err != nil {
			return fmt.Errorf("R=%d: %w", r, err)
		}
		fmt.Printf("audit-bench R=%d: %d pairs, %.3fs/op, %d allocs/op, %.0f pairs/sec (%s: %.1f%% pruned, cache hit rate %.1f%%, %d null keys simulated)\n",
			r, res.Pairs, float64(res.NsPerOp)/1e9, res.AllocsPerOp, res.PairsPerSec,
			res.CandidateGen, 100*res.PruningRatio, 100*res.CacheHitRate, res.PrewarmKeys)
		out.Benchmarks = append(out.Benchmarks, res)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchGateTolerance is how far below the committed trajectory a fresh run's
// pair throughput may land before the gate fails: 20%, wide enough for
// machine noise, narrow enough to catch a real engine regression.
const benchGateTolerance = 0.20

// runBenchGate is the CI perf-regression check: re-run the dense-audit
// benchmark at the committed trajectory's reference row and fail if pair
// throughput dropped more than benchGateTolerance below it. The reference
// row is matched by Regions AND Workers so the comparison is like-for-like
// (the fresh run is pinned to the committed row's worker count, never the
// machine default): refRegions <= 0 selects the largest committed size, and
// refWorkers <= 0 selects the smallest worker count at that size — the
// single-core row, which is the least machine-dependent reference.
func runBenchGate(path string, refRegions, refWorkers int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed trajectory: %w", err)
	}
	var committed auditBenchFile
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	var ref *auditBenchResult
	for i := range committed.Benchmarks {
		row := &committed.Benchmarks[i]
		if refRegions > 0 && row.Regions != refRegions {
			continue
		}
		if refWorkers > 0 && row.Workers != refWorkers {
			continue
		}
		switch {
		case ref == nil:
			ref = row
		case row.Regions > ref.Regions:
			ref = row
		case row.Regions == ref.Regions && row.Workers < ref.Workers:
			ref = row
		}
	}
	if ref == nil {
		return fmt.Errorf("%s has no committed row for R=%d workers=%d", path, refRegions, refWorkers)
	}
	if ref.PairsPerSec <= 0 {
		return fmt.Errorf("committed row R=%d has no pairs/sec to gate against", ref.Regions)
	}
	fmt.Printf("bench-gate: committed R=%d workers=%d at %.0f pairs/sec, rerunning...\n",
		ref.Regions, ref.Workers, ref.PairsPerSec)
	cfg := core.DefaultConfig()
	cfg.Workers = ref.Workers
	res, err := runAuditBench(ref.Regions, cfg)
	if err != nil {
		return fmt.Errorf("R=%d: %w", ref.Regions, err)
	}
	floor := ref.PairsPerSec * (1 - benchGateTolerance)
	fmt.Printf("bench-gate: measured %.0f pairs/sec (floor %.0f, committed %.0f)\n",
		res.PairsPerSec, floor, ref.PairsPerSec)
	if res.PairsPerSec < floor {
		return fmt.Errorf("pair throughput regressed: %.0f pairs/sec is %.1f%% below the committed %.0f (tolerance %.0f%%)",
			res.PairsPerSec, 100*(1-res.PairsPerSec/ref.PairsPerSec), ref.PairsPerSec, 100*benchGateTolerance)
	}
	return nil
}

// benchGateScalingWorkers and benchGateScalingFloor pin the CI scaling
// check: a fresh workers=benchGateScalingWorkers run must reach at least
// benchGateScalingFloor of its ideal speedup over a fresh workers=1 run.
const (
	benchGateScalingWorkers = 4
	benchGateScalingFloor   = 0.70
)

// runBenchGateScaling is the CI worker-scaling check: measure a fresh
// workers=1 and workers=4 audit at the matrix size and fail if the measured
// speedup falls below 0.7× the ideal for this machine. Both rows are
// measured in-process on the same box, so the check needs no committed
// reference and is immune to hardware drift; the ideal is min(workers,
// cpus), so on a single-core runner the check degrades to "fan-out overhead
// costs at most 30%" rather than demanding impossible parallel speedup.
func runBenchGateScaling(regions int) error {
	if regions <= 0 {
		regions = auditBenchMatrixRegions
	}
	measure := func(w int) (float64, error) {
		cfg := core.DefaultConfig()
		cfg.Workers = w
		res, err := runAuditBench(regions, cfg)
		if err != nil {
			return 0, fmt.Errorf("R=%d workers=%d: %w", regions, w, err)
		}
		fmt.Printf("bench-gate-scaling: R=%d workers=%d: %.3fs/op, %.0f pairs/sec\n",
			regions, w, float64(res.NsPerOp)/1e9, res.PairsPerSec)
		return res.PairsPerSec, nil
	}
	base, err := measure(1)
	if err != nil {
		return err
	}
	if base <= 0 {
		return fmt.Errorf("workers=1 run produced no throughput to scale against")
	}
	pps, err := measure(benchGateScalingWorkers)
	if err != nil {
		return err
	}
	ideal := idealSpeedup(benchGateScalingWorkers)
	eff := (pps / base) / ideal
	fmt.Printf("bench-gate-scaling: speedup %.2fx of %.0fx ideal (efficiency %.2f, floor %.2f, cpus=%d)\n",
		pps/base, ideal, eff, benchGateScalingFloor, runtime.NumCPU())
	if eff < benchGateScalingFloor {
		return fmt.Errorf("worker scaling regressed: workers=%d efficiency %.2f is below the %.2f floor (speedup %.2fx of %.0fx ideal)",
			benchGateScalingWorkers, eff, benchGateScalingFloor, pps/base, ideal)
	}
	return nil
}
