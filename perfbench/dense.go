package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// denseDelta is the dense-delta workload: state-neutral update batches
// applied to a live partitioning, each followed by an incremental re-audit.
type denseDelta struct {
	dp      *partition.DeltaPartitioning
	da      *core.DeltaAuditor
	col     *obs.Collector
	batches [][]partition.Update
	// ref is the cold audit of the universe. Every batch deletes and
	// reinserts the same records, so every re-audit must equal it.
	ref     *core.Result
	last    *core.Result
	regions int
	records int
}

// denseUniverseSeed fixes the dense universe; the workload seed picks the
// update stream, so runs on different seeds audit the same regions.
const denseUniverseSeed = 1

func setupDenseDelta(p params) (instance, error) {
	sz := p.sizes
	obsv, grid := experiments.DenseAuditObservations(sz.regions, denseUniverseSeed)
	dp := partition.NewDeltaByGrid(grid, obsv, partition.Options{Seed: 1})
	col := obs.NewCollector(0)
	cfg := core.DefaultConfig()
	cfg.Collector = col
	da, err := core.NewDeltaAuditor(dp, cfg)
	if err != nil {
		return nil, err
	}
	first, _, err := da.Audit(context.Background())
	if err != nil {
		return nil, fmt.Errorf("seeding the delta auditor: %w", err)
	}
	ref, err := core.Audit(dp.Snapshot(), core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("cold reference audit: %w", err)
	}
	if !reflect.DeepEqual(first, ref) {
		return nil, errors.New("the delta auditor's first audit differs from the cold audit")
	}

	rng := stats.NewRNG(mix(p.seed, 1<<32))
	batches := make([][]partition.Update, sz.batches)
	for b := range batches {
		picked := make(map[int]bool, sz.batch)
		idx := make([]int, 0, sz.batch)
		for len(idx) < min(sz.batch, len(obsv)) {
			i := rng.Intn(len(obsv))
			if !picked[i] {
				picked[i] = true
				idx = append(idx, i)
			}
		}
		batch := make([]partition.Update, 0, 2*len(idx))
		for _, i := range idx {
			batch = append(batch, partition.Update{Op: partition.UpdateDelete, Obs: obsv[i]})
		}
		for _, i := range idx {
			batch = append(batch, partition.Update{Op: partition.UpdateInsert, Obs: obsv[i]})
		}
		batches[b] = batch
	}
	return &denseDelta{dp: dp, da: da, col: col, batches: batches, ref: ref, last: first,
		regions: sz.regions, records: len(obsv)}, nil
}

func (w *denseDelta) op(_, seq int, tr *tracer) (time.Duration, error) {
	batch := w.batches[seq%len(w.batches)]
	var before obs.Snapshot
	if tr != nil {
		before = w.col.Snapshot()
	}
	root := tr.begin("op", -1, seq)
	t0 := time.Now()
	sp := tr.begin("partition.delta_apply", root, seq)
	err := w.dp.Apply(batch)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return time.Since(t0), err
	}
	sp = tr.begin("core.delta_audit", root, seq)
	ta := time.Now()
	res, st, err := w.da.Audit(context.Background())
	auditS := time.Since(ta).Seconds()
	tr.end(sp)
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return d, err
	}
	w.last = res
	if tr != nil {
		engineFigures(tr, seq, sp, before, w.col.Snapshot())
		full := 0.0
		if st.FullSweep {
			full = 1
		}
		tr.count(seq, "core.delta_full_sweeps", full)
		tr.count(seq, "core.delta_dirty_regions", float64(st.DirtyRegions))
		tr.count(seq, "core.delta_rescored_pairs", float64(st.RescoredPairs))
		tr.count(seq, "core.delta_reused_pairs", float64(st.ReusedPairs))
		tr.count(seq, "partition.eligible_regions", float64(res.EligibleRegions))
		tr.count(seq, "core.pairs_scanned", float64(st.RescoredPairs))
		tr.count(seq, "core.candidates", float64(res.Candidates))
		tr.count(seq, "core.flagged", float64(len(res.Pairs)))
		tr.count(seq, "core.scored_pairs_per_s", float64(st.RescoredPairs)/auditS)
	}
	if !reflect.DeepEqual(res, w.ref) {
		return d, errors.New("re-audit after a state-neutral batch differs from the cold audit")
	}
	return d, nil
}

// finish checks the last incremental result against a cold audit of the
// final snapshot.
func (w *denseDelta) finish() error {
	cold, err := core.Audit(w.dp.Snapshot(), core.DefaultConfig())
	if err != nil {
		return fmt.Errorf("final cold audit: %w", err)
	}
	if !reflect.DeepEqual(w.last, cold) {
		return errors.New("the delta auditor's last result differs from a cold audit of its snapshot")
	}
	return nil
}

func (w *denseDelta) layers(int, *tracer) error { return nil }

func (w *denseDelta) inputs() int { return len(w.batches) }

func (w *denseDelta) derive(*tracer, map[string]metric) {}

func (w *denseDelta) facts(prov map[string]any) {
	prov["regions"] = w.regions
	prov["records"] = w.records
	prov["batch_updates"] = len(w.batches[0])
	prov["batches"] = len(w.batches)
	prov["eligible_regions"] = w.ref.EligibleRegions
	prov["candidate_pairs"] = w.ref.Candidates
	prov["flagged_pairs"] = len(w.ref.Pairs)
}

func (w *denseDelta) close() {}
