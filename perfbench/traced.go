package main

import (
	"fmt"
	"sync"
	"time"

	"lcsf/internal/obs"
)

// layerMetrics are the per-layer metrics of a traced run, in report order.
// A metric is read from the per-operation figure of the same name when the
// workload recorded one, else from the self time of the span named like the
// metric without its "_s" suffix; a layer the workload does not run reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"table.read_csv_s", "s"},
	{"table.alloc_bytes_per_body_byte", "B/B"},
	{"hmda.convert_s", "s"},
	{"hmda.records", "count"},
	{"partition.by_grid_s", "s"},
	{"partition.eligible_regions", "count"},
	{"partition.delta_apply_s", "s"},
	{"core.index_s", "s"},
	{"core.prepare_s", "s"},
	{"core.prewarm_s", "s"},
	{"core.sweep_s", "s"},
	{"core.fdr_s", "s"},
	{"core.pairs_scanned", "count"},
	{"core.candidates", "count"},
	{"core.flagged", "count"},
	{"core.scored_pairs_per_s", "1/s"},
	{"core.delta_audit_s", "s"},
	{"core.delta_dirty_regions", "count"},
	{"core.delta_rescored_pairs", "count"},
	{"core.delta_reused_pairs", "count"},
	{"core.delta_full_sweeps", "count"},
	{"stats.null_prewarm_keys", "count"},
	{"stats.null_hits", "count"},
	{"stats.null_misses", "count"},
	{"stats.null_lookups_per_prewarm_key", "1"},
	{"report.build_s", "s"},
	{"report.write_json_s", "s"},
	{"report.geojson_s", "s"},
	{"report.bytes", "B"},
	{"server.handler_s", "s"},
	{"server.overhead_s", "s"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"jobs.fetch_lag_s", "s"},
	{"jobs.polls_per_job", "count"},
	{"jobs.attempts_per_job", "count"},
	{"jobs.rejected_share", "1"},
	{"jobs.pairs_scanned_over_sync", "1"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_s_per_op", "s"},
	{"runtime.heap_inuse_mb_max", "MB"},
	{"trace.untraced_p50_s", "s"},
	{"trace.traced_p50_s", "s"},
	{"trace.overhead_s", "s"},
}

// spreadMetrics are per-operation figures whose spread a traced run prints
// beside their median, because they are not exact from run to run.
var spreadMetrics = []string{"stats.null_hits", "stats.null_misses"}

// tracedRun measures a set-up instance for the per-layer metrics: an
// untraced closed loop, the same loop traced, and (for workloads whose
// operation hides its layers behind a handler) a pass that runs inputs
// through each layer's public functions. It splits p.seconds between them.
func tracedRun(w workload, inst instance, p params, clients, seq int, out *outcome) (*outcome, error) {
	loopDur := p.seconds / 2
	if w.decompose {
		loopDur = p.seconds * 2 / 5
	}
	const minOps = 10
	hardCap := 3 * p.seconds
	plain := closedLoop(clients, seq, loopDur, minOps, hardCap, func(c, s int) (time.Duration, error) {
		return inst.op(c, s, nil)
	})
	seq += plain.attempted

	tr := newTracer(w.name)
	var heapMu sync.Mutex
	var heapMax uint64
	traced := closedLoop(clients, seq, loopDur, minOps, hardCap, func(c, s int) (time.Duration, error) {
		d, err := inst.op(c, s, tr)
		h := readRuntime().heapInuse
		heapMu.Lock()
		heapMax = max(heapMax, h)
		heapMu.Unlock()
		return d, err
	})
	seq += traced.attempted

	var layerErrs []error
	layerOps := 0
	if w.decompose {
		stop := time.Now().Add(p.seconds - 2*loopDur)
		for k := 0; k < inst.inputs() || time.Now().Before(stop); k++ {
			if err := inst.layers(seq, tr); err != nil {
				layerErrs = append(layerErrs, fmt.Errorf("layers of operation %d: %w", seq, err))
			}
			seq++
			layerOps++
		}
	}
	checkErr := inst.finish()

	self := tr.selfTimes()
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		var v float64
		if perOp, ok := tr.counts[lm.name]; ok {
			v = medianOf(perOp)
		} else if perOp, ok := self[trimSeconds(lm.name)]; ok {
			v = medianOf(perOp)
		}
		m[lm.name] = metric{v, lm.unit}
	}
	inst.derive(tr, m)
	ops := float64(max(traced.attempted, 1))
	m["runtime.gc_cycles_per_op"] = metric{float64(traced.gcCycles) / ops, "count"}
	m["runtime.gc_pause_s_per_op"] = metric{traced.gcPause.Seconds() / ops, "s"}
	m["runtime.heap_inuse_mb_max"] = metric{float64(heapMax) / 1e6, "MB"}
	p50Plain, _ := quantileAt(plain.lat, 0.5)
	p50Traced, _ := quantileAt(traced.lat, 0.5)
	p50Plain = finiteOr(p50Plain, plain.elapsed.Seconds())
	p50Traced = finiteOr(p50Traced, traced.elapsed.Seconds())
	m["trace.untraced_p50_s"] = metric{p50Plain, "s"}
	m["trace.traced_p50_s"] = metric{p50Traced, "s"}
	m["trace.overhead_s"] = metric{p50Traced - p50Plain, "s"}

	for _, name := range spreadMetrics {
		perOp, ok := tr.counts[name]
		if !ok {
			continue
		}
		// Across operations the range mixes inputs; repeats of one input
		// differ only by the race.
		all := make([]float64, 0, len(perOp))
		byInput := map[int][]float64{}
		for op, v := range perOp {
			all = append(all, v)
			byInput[op%inst.inputs()] = append(byInput[op%inst.inputs()], v)
		}
		lo, hi := spreadOf(all)
		repeated, widest := 0, 0.0
		for _, vs := range byInput {
			if len(vs) > 1 {
				l, h := spreadOf(vs)
				repeated++
				widest = max(widest, h-l)
			}
		}
		out.notes = append(out.notes, fmt.Sprintf("%s per operation: median %g, range %g..%g over %d operations; "+
			"repeats of one input differ by up to %g (%d inputs repeated)", name, median(all), lo, hi, len(all), widest, repeated))
	}
	errs := append(append(append([]error{}, plain.errs...), traced.errs...), layerErrs...)
	for _, err := range errs[:min(len(errs), 5)] {
		out.notes = append(out.notes, "failed: "+err.Error())
	}
	if checkErr != nil {
		out.notes = append(out.notes, "end-of-run check failed: "+checkErr.Error())
	}
	if p.traceDir != "" {
		path, err := tr.write(p.traceDir, p.seed)
		if err != nil {
			return nil, err
		}
		out.notes = append(out.notes, "spans written to "+path)
	}
	out.provenance["timed_ops_untraced"] = plain.attempted
	out.provenance["timed_ops_traced"] = traced.attempted
	out.provenance["layer_ops"] = layerOps
	failed := plain.failed + traced.failed + len(layerErrs)
	out.result = result{
		Correct:   failed == 0 && checkErr == nil,
		Attempted: plain.attempted + traced.attempted + layerOps,
		Failed:    failed,
		Metrics:   m,
	}
	return out, nil
}

func trimSeconds(name string) string {
	if n := len(name); n > 2 && name[n-2:] == "_s" {
		return name[:n-2]
	}
	return name
}

// engineFigures records, for operation op, what an audit published to a
// collector between two snapshots: its phase spans (laid out in order from
// the start of span parent) and its funnel and null-cache counts.
func engineFigures(tr *tracer, op, parent int, before, after obs.Snapshot) {
	if tr == nil {
		return
	}
	at := tr.startOf(parent)
	for _, ph := range []struct{ span, hist string }{
		{"core.partition", obs.MAuditPhasePartitionSeconds},
		{"core.index", obs.MAuditPhaseIndexSeconds},
		{"core.prepare", obs.MAuditPhasePrepareSeconds},
		{"core.prewarm", obs.MAuditPhasePrewarmSeconds},
		{"core.sweep", obs.MAuditPhaseSweepSeconds},
		{"core.fdr", obs.MAuditPhaseFDRSeconds},
	} {
		d := after.Histograms[ph.hist].Sum - before.Histograms[ph.hist].Sum
		at = tr.add(ph.span, parent, op, at, time.Duration(d*float64(time.Second)))
	}
	diff := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	keys := diff(obs.MMCNullPrewarmKeys)
	hits, misses := diff(obs.MMCNullCacheHits), diff(obs.MMCNullCacheMisses)
	tr.count(op, "stats.null_prewarm_keys", keys)
	tr.count(op, "stats.null_hits", hits)
	tr.count(op, "stats.null_misses", misses)
	lookups := 0.0
	if keys > 0 {
		lookups = (hits + misses) / keys
	}
	tr.count(op, "stats.null_lookups_per_prewarm_key", lookups)
}
