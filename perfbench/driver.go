package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sizes fixes how much work a run does. defaultSizes is what the benchmark
// measures; the smoke test shrinks it.
type sizes struct {
	sync      larSize // lar-sync's body pool
	jobs      larSize // lar-jobs' body pool
	regions   int     // dense-delta universe size R
	batch     int     // records one dense-delta batch deletes and reinserts
	batches   int     // dense-delta batches in the pool
	warmup    int     // operations discarded before the timed window
	setupReps int     // set-ups per run; setup_s is their median
	minOps    int     // the timed window runs on until this many operations
}

var defaultSizes = sizes{
	sync:      larSize{records: 14000, bodies: 11},
	jobs:      larSize{records: 10000, bodies: 49},
	regions:   1000,
	batch:     30,
	batches:   128,
	warmup:    4,
	setupReps: 3,
	minOps:    120,
}

// larSize is a LAR body pool's shape. Pool sizes are odd so that lar-jobs'
// alternating formats reach every body in both.
type larSize struct {
	records int // decisioned records per body
	bodies  int
}

// params is one run's configuration.
type params struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	sizes   sizes
	// traceDir receives the spans of a traced run; "" keeps them in memory.
	traceDir string
}

// instance is one set-up workload, ready to run operations.
type instance interface {
	// op runs operation seq for client c and returns its latency. A non-nil
	// error means the operation failed or its output did not verify. The
	// tracer is nil in untraced runs.
	op(c, seq int, tr *tracer) (time.Duration, error)
	// layers runs the input of operation seq through each layer's public
	// functions under spans, for the per-layer figures of a traced run.
	layers(seq int, tr *tracer) error
	// inputs is the size of the input pool operations cycle through.
	inputs() int
	// finish runs the end-of-run output check.
	finish() error
	// derive adds the per-layer metrics that combine several figures.
	derive(tr *tracer, m map[string]metric)
	// facts adds the workload's input sizes to the provenance.
	facts(prov map[string]any)
	// close stops everything the instance started and waits for it.
	close()
}

// workload is a named way to set up an instance.
type workload struct {
	name    string
	clients func(nproc int) int
	// decompose reports whether traced runs need a separate layers pass;
	// otherwise the operation's own spans already show every layer.
	decompose bool
	setup     func(p params) (instance, error)
}

var workloads = []workload{
	{name: "lar-sync", clients: func(int) int { return 1 }, decompose: true, setup: setupLARSync},
	{name: "lar-jobs", clients: func(n int) int { return min(2, n) }, decompose: true, setup: setupLARJobs},
	{name: "dense-delta", clients: func(int) int { return 1 }, setup: setupDenseDelta},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opFunc is one closed-loop operation.
type opFunc func(c, seq int) (time.Duration, error)

// window is what one closed-loop pass measured.
type window struct {
	lat       []float64 // seconds per attempted operation, failures as +Inf
	attempted int
	failed    int
	errs      []error // the first few failures, for the report
	elapsed   time.Duration
	cpu       time.Duration
	allocB    uint64
	gcCycles  uint64
	gcPause   time.Duration
}

// closedLoop runs clients closed-loop clients over operations seqBase,
// seqBase+1, ... handed out in order. Clients stop starting operations once
// dur has passed and at least minOps have started, or once hardCap has
// passed.
func closedLoop(clients, seqBase int, dur time.Duration, minOps int, hardCap time.Duration, op opFunc) window {
	var next atomic.Int64
	lats := make([][]float64, clients)
	errs := make([][]error, clients)
	ms0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	deadline, hard := start.Add(dur), start.Add(hardCap)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hard) || (now.After(deadline) && next.Load() >= int64(minOps)) {
					return
				}
				seq := seqBase + int(next.Add(1)-1)
				d, err := op(c, seq)
				if err != nil {
					errs[c] = append(errs[c], fmt.Errorf("operation %d: %w", seq, err))
					lats[c] = append(lats[c], math.Inf(1))
					continue
				}
				lats[c] = append(lats[c], d.Seconds())
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	ms1 := readRuntime()
	w.allocB = ms1.allocB - ms0.allocB
	w.gcCycles = ms1.gcCycles - ms0.gcCycles
	w.gcPause = ms1.gcPause - ms0.gcPause
	for c := range lats {
		w.lat = append(w.lat, lats[c]...)
		w.failed += len(errs[c])
		w.errs = append(w.errs, errs[c]...)
	}
	w.attempted = len(w.lat)
	sort.Float64s(w.lat)
	return w
}

// quantileAt returns the q-quantile of sorted values by nearest rank, and how
// many samples lie beyond it.
func quantileAt(sorted []float64, q float64) (float64, int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k], len(sorted) - 1 - k
}

// runtimeStats are the process-wide runtime counters a window diffs.
type runtimeStats struct {
	allocB    uint64
	gcCycles  uint64
	gcPause   time.Duration
	heapInuse uint64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocB:    ms.TotalAlloc,
		gcCycles:  uint64(ms.NumGC),
		gcPause:   time.Duration(ms.PauseTotalNs),
		heapInuse: ms.HeapInuse,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload sets w up setupReps times, keeps the last instance, and
// measures it: end-to-end metrics untraced, or per-layer metrics traced.
func runWorkload(w workload, p params) (*outcome, error) {
	nproc := runtime.NumCPU()
	clients := w.clients(nproc)
	sz := p.sizes
	reps := sz.setupReps
	if p.trace {
		reps = 1 // traced runs report no setup_s
	}
	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		inst = in
		warm := closedLoop(clients, 0, 0, sz.warmup, time.Hour, func(c, seq int) (time.Duration, error) {
			return inst.op(c, seq, nil)
		})
		if warm.failed > 0 {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, warm.errs[0])
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()

	prov := map[string]any{
		"workload":      w.name,
		"seed":          p.seed,
		"seconds":       p.seconds.Seconds(),
		"trace":         p.trace,
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commitID(),
		"clients":       clients,
		"warmup_ops":    sz.warmup,
		"setup_reps":    reps,
		"setup_s_each":  setups,
		"min_timed_ops": sz.minOps,
	}
	inst.facts(prov)
	out := &outcome{provenance: prov}
	seq := sz.warmup
	hardCap := 3 * p.seconds
	if !p.trace {
		win := closedLoop(clients, seq, p.seconds, sz.minOps, hardCap, func(c, s int) (time.Duration, error) {
			return inst.op(c, s, nil)
		})
		checkErr := inst.finish()
		out.endToEnd(win, median(setups), checkErr)
		prov["timed_ops"] = win.attempted
		return out, nil
	}
	return tracedRun(w, inst, p, clients, seq, out)
}

// endToEnd fills the result with the end-to-end metrics of a window.
func (o *outcome) endToEnd(win window, setupS float64, checkErr error) {
	ops := float64(max(win.attempted, 1))
	good := win.attempted - win.failed
	m := map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_ops_s": {float64(good) / win.elapsed.Seconds(), "1/s"},
		"cpu_s_per_op":     {win.cpu.Seconds() / ops, "s"},
		"alloc_mb_per_op":  {float64(win.allocB) / 1e6 / ops, "MB"},
		"success_share":    {float64(good) / ops, "1"},
	}
	p50, _ := quantileAt(win.lat, 0.5)
	p90, beyond := quantileAt(win.lat, 0.9)
	m["latency_p50_s"] = metric{finiteOr(p50, win.elapsed.Seconds()), "s"}
	o.notes = append(o.notes, fmt.Sprintf("latency_p50_s over %d samples", win.attempted))
	if beyond >= 10 {
		m["latency_p90_s"] = metric{finiteOr(p90, win.elapsed.Seconds()), "s"}
		o.notes = append(o.notes, fmt.Sprintf("latency_p90_s over %d samples, %d beyond it", win.attempted, beyond))
	} else {
		o.notes = append(o.notes, fmt.Sprintf("latency_p90_s refused: %d samples, only %d beyond it (need 10)", win.attempted, beyond))
	}
	for _, err := range win.errs[:min(len(win.errs), 5)] {
		o.notes = append(o.notes, "failed: "+err.Error())
	}
	if checkErr != nil {
		o.notes = append(o.notes, "end-of-run check failed: "+checkErr.Error())
	}
	o.result = result{
		Correct:   win.failed == 0 && checkErr == nil,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   m,
	}
}

// finiteOr replaces an infinite quantile (a failed operation) with the
// window length, the longest any operation in it could have taken.
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// commitID is the source commit run.sh found, or "unknown" outside a git
// checkout.
func commitID() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
