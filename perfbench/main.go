// Command perfbench is the LC-SF audit service's end-to-end and per-layer
// benchmark. One run sets up one workload from a seed, drives it as a closed
// loop for a fixed number of seconds, checks every output, and prints one
// JSON result line last:
//
//	bash perfbench/run.sh --workload lar-sync --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, with --trace 1 the
// per-layer metrics. --steadiness N runs N seeds per workload in child
// processes and reports each metric's median, quartiles and relative IQR.
//
// # Workloads
//
// Every workload is a closed loop from this one process: a client sends its
// next operation only after the previous one completed. Clients are sized
// from nproc at set-up. Inputs come from a pool generated from --seed and
// cycled in a fixed order; the first operations of the loop are warm-up,
// discarded and counted in setup_s.
//
//   - lar-sync: one client POSTs LAR CSV bodies to /audit with the server
//     defaults (core.DefaultConfig, engine workers = GOMAXPROCS, 100x50
//     grid). Bodies come from hmda.Generate over census.Generate. This is
//     the interactive analyst's path; the Monte-Carlo null pre-warm does most
//     of its work, CSV decode a tenth.
//   - lar-jobs: min(2, nproc) clients each run submit /jobs -> poll
//     GET /jobs/{id} -> GET /jobs/{id}/result on a pool of the same kind of
//     bodies, every other job with format=geojson. The same engine runs
//     through the async path: each job cuts its pair space into shards that
//     each re-run the engine, and the second client's job waits in the
//     queue. A job costs about three sync requests, so its bodies are
//     smaller (10k records against 14k) and its pool larger, to finish well
//     over 100 jobs in a 30-second run with a steady mix.
//   - dense-delta: one caller applies seeded, state-neutral batches (delete
//     a few dozen random records, reinsert them) to a
//     partition.DeltaPartitioning over experiments.DenseAuditObservations at
//     R=1000, then re-audits with core.DeltaAuditor. No HTTP, CSV or jobs
//     layer, and nothing is pre-warmed per batch: the incremental engine and
//     the pair kernel do the work.
//
// # End-to-end metrics
//
// Per workload: setup_s (input generation, server construction, reference
// rendering and warm-up; the median of several set-ups), latency_p50_s and
// latency_p90_s (per operation: a request through the full response, a job
// from submit until its result is fetched, a batch through apply and
// re-audit), throughput_ops_s, cpu_s_per_op (process user+sys),
// alloc_mb_per_op, and success_share (operations whose output verified,
// over operations attempted). latency_p90_s is refused when fewer than 10
// samples lie beyond it.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// The traced run times calls into each layer's public functions from this
// package's own files, keeping spans in memory and writing them to
// .bench_build/traces at exit.
//
//   - table/hmda (table.read_csv_s, table.alloc_bytes_per_body_byte,
//     hmda.convert_s, hmda.records): latency_p50_s and alloc_mb_per_op on
//     lar-sync and lar-jobs; no change on dense-delta.
//   - partition (partition.by_grid_s, partition.eligible_regions,
//     partition.delta_apply_s): by_grid moves lar-sync, delta_apply moves
//     dense-delta.
//   - core phases (core.index_s, core.prepare_s, core.prewarm_s,
//     core.sweep_s, core.fdr_s), read from a fresh obs.Collector per
//     operation: prewarm moves lar-sync and lar-jobs. The engine publishes
//     no phase split for incremental passes, so on dense-delta the sweep
//     shows in core.delta_audit_s.
//   - core funnel (core.pairs_scanned, core.candidates, core.flagged,
//     core.scored_pairs_per_s = pairs scanned / sweep seconds; on
//     dense-delta the rescored pairs over the delta audit's seconds).
//   - core delta (core.delta_audit_s, core.delta_dirty_regions,
//     core.delta_rescored_pairs, core.delta_reused_pairs,
//     core.delta_full_sweeps): dense-delta only.
//   - stats null cache (stats.null_prewarm_keys, stats.null_hits,
//     stats.null_misses, stats.null_lookups_per_prewarm_key): cpu_s_per_op
//     and latency_p50_s on lar-sync and lar-jobs; no change on dense-delta.
//     The hit/miss split races at more than one worker, so the run prints
//     their spread.
//   - report (report.build_s, report.write_json_s, report.geojson_s,
//     report.bytes): lar-sync for JSON, lar-jobs for the GeoJSON half.
//   - server (server.handler_s, server.overhead_s = handler time minus the
//     layer self-times it contains).
//   - jobs (jobs.queue_wait_s, jobs.run_s, jobs.fetch_lag_s,
//     jobs.polls_per_job, jobs.attempts_per_job, jobs.rejected_share,
//     jobs.pairs_scanned_over_sync): lar-jobs only.
//   - runtime (runtime.gc_cycles_per_op, runtime.gc_pause_s_per_op,
//     runtime.heap_inuse_mb_max): alloc_mb_per_op and latency_p90_s
//     everywhere.
//   - trace (trace.untraced_p50_s, trace.traced_p50_s, trace.overhead_s):
//     the cost of tracing itself, traced minus untraced latency_p50_s.
//
// A layer a workload does not run reports 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with --steadiness)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	steadiness := fs.Int("steadiness", 0, "run this many seeds per workload in child processes and report the spread of each end-to-end metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *steadiness > 0 {
		if err := runSteadiness(stdout, *name, *seed, *seconds, *steadiness); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		sizes:   defaultSizes,
		// Runs start at the repository root, where run.sh keeps its build.
		traceDir: filepath.Join(".bench_build", "traces"),
	}
	out, err := runWorkload(w, p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := out.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named figure of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one run reports: the result line plus the lines a
// reader needs to trust it.
type outcome struct {
	result     result
	notes      []string       // human-readable detail, printed before the result
	provenance map[string]any // inputs, machine and counts behind the figures
}

func (o *outcome) print(w io.Writer) error {
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(o.result.Metrics))
	for n := range o.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.result.Metrics[n]
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	prov, err := json.Marshal(o.provenance)
	if err != nil {
		return fmt.Errorf("encoding provenance: %w", err)
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	line, err := json.Marshal(o.result)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
