package jobs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
)

// testRequest builds a small but non-trivial job request: a few thousand
// decisioned applications with planted bias on a coarse grid, audited with a
// cheap Monte-Carlo budget.
func testRequest(t *testing.T) Request {
	t.Helper()
	model := census.Generate(census.Config{NumTracts: 300, Seed: 11})
	recs := hmda.Generate(model, hmda.Lender{Name: "T", Decisioned: 6000, Bias: 0.2, Seed: 5})
	acfg := core.DefaultConfig()
	acfg.MCWorlds = 199
	acfg.MinRegionSize = 25
	acfg.Seed = 7
	return Request{
		Obs:   hmda.ToObservations(recs),
		Grid:  geo.NewGrid(geo.ContinentalUS, 12, 8),
		Audit: acfg,
	}
}

// waitTerminal polls until the job leaves the running states.
func waitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Snapshot{}
}

func shutdownClean(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestJobLifecycle(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var clockMu sync.Mutex
	now := base
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	m := NewManager(Config{Workers: 4, Clock: clock})
	defer shutdownClean(t, m)

	req := testRequest(t)
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.State != StateQueued {
		t.Fatalf("initial snapshot = %+v", snap)
	}
	if snap.SubmittedAt.Before(base) {
		t.Errorf("SubmittedAt %v not from injected clock", snap.SubmittedAt)
	}

	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q)", final.State, final.Error)
	}
	if final.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", final.Attempts)
	}
	if final.FinishedAt.Before(final.StartedAt) || final.StartedAt.Before(final.SubmittedAt) {
		t.Errorf("timestamps out of order: %+v", final)
	}
	if final.ResultBytes == 0 {
		t.Error("ResultBytes = 0 for a done job")
	}

	data, ctype, ok := m.Result(snap.ID)
	if !ok || ctype != "application/json" || len(data) != final.ResultBytes {
		t.Fatalf("Result: ok=%v ctype=%q len=%d", ok, ctype, len(data))
	}

	// The async result must be byte-identical to the synchronous audit of
	// the same request, and its progress must report the same pair count
	// (the figure the tenancy layer charges budgets with).
	req2 := testRequest(t)
	req2.Audit.Workers = 1
	syncCol := obs.NewCollector(16)
	req2.Audit.Collector = syncCol
	part := partition.ByGrid(req2.Grid, req2.Obs, partition.Options{Seed: req2.Audit.Seed})
	res, err := core.AuditContext(context.Background(), part, req2.Audit)
	if err != nil {
		t.Fatal(err)
	}
	syncPairs := syncCol.Snapshot().Counters[obs.MAuditPairsScanned]
	if syncPairs == 0 || final.Progress.PairsScanned != syncPairs {
		t.Errorf("progress pairs scanned = %d, sync audit scanned %d",
			final.Progress.PairsScanned, syncPairs)
	}
	var want bytes.Buffer
	if err := report.Build(part, req2.Grid, res).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("job report differs from synchronous audit (%d vs %d bytes)",
			len(data), want.Len())
	}

	counters := m.Collector().Snapshot().Counters
	if counters[obs.MJobsSubmitted] != 1 || counters[obs.MJobsCompleted] != 1 {
		t.Errorf("counters: submitted=%d completed=%d",
			counters[obs.MJobsSubmitted], counters[obs.MJobsCompleted])
	}
}

func TestJobGeoJSONFormat(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer shutdownClean(t, m)
	req := testRequest(t)
	req.GeoJSON = true
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	data, ctype, ok := m.Result(snap.ID)
	if !ok || ctype != "application/geo+json" {
		t.Fatalf("Result: ok=%v ctype=%q", ok, ctype)
	}
	if !bytes.Contains(data, []byte("FeatureCollection")) {
		t.Error("GeoJSON result missing FeatureCollection")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer shutdownClean(t, m)
	if _, err := m.Submit(Request{}); err == nil {
		t.Error("empty observation set accepted")
	}
}

// gate is a test audit that blocks every job until released or until its
// context ends, then runs the real engine. A job canceled at the gate thus
// reaches the engine with a dead context, so the error the job reports is
// the one the engine returns.
type gate struct {
	started chan struct{} // one receive per audit that reached the gate
	release chan struct{} // close to let every audit proceed
}

func newGate() *gate {
	return &gate{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gate) audit(ctx context.Context, p *partition.Partitioning, cfg core.Config) (*core.Result, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return core.AuditContext(ctx, p, cfg)
}

func TestQueueFullBackpressure(t *testing.T) {
	gate := newGate()
	m := NewManager(Config{
		Workers: 1, MaxActiveJobs: 1, QueueDepth: 1,
		audit: gate.audit,
	})
	defer shutdownClean(t, m)

	a, err := m.Submit(testRequest(t)) // dequeued by the dispatcher, blocked at the gate
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	b, err := m.Submit(testRequest(t)) // sits in the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testRequest(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	counters := m.Collector().Snapshot().Counters
	if counters[obs.MJobsRejected] != 1 {
		t.Errorf("jobs.rejected = %d, want 1", counters[obs.MJobsRejected])
	}

	close(gate.release)
	for _, id := range []string{a.ID, b.ID} {
		if final := waitTerminal(t, m, id); final.State != StateDone {
			t.Errorf("job %s = %s (%s)", id, final.State, final.Error)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := newGate()
	m := NewManager(Config{
		Workers: 1, MaxActiveJobs: 1, QueueDepth: 4,
		audit: gate.audit,
	})
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	b, err := m.Submit(testRequest(t)) // still queued behind a
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Cancel(b.ID)
	if !ok || snap.State != StateCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, snap.State)
	}
	close(gate.release)
	if final := waitTerminal(t, m, a.ID); final.State != StateDone {
		t.Errorf("job a = %s", final.State)
	}
	// The canceled job must never run.
	if final, _ := m.Get(b.ID); final.State != StateCanceled || final.Attempts != 0 {
		t.Errorf("job b = %s attempts=%d", final.State, final.Attempts)
	}
	shutdownClean(t, m)
}

func TestCancelRunningJob(t *testing.T) {
	gate := newGate()
	m := NewManager(Config{Workers: 1, audit: gate.audit})
	defer shutdownClean(t, m)
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // the audit is gated: the job is running
	if _, ok := m.Cancel(a.ID); !ok {
		t.Fatal("cancel running returned !ok")
	}
	final := waitTerminal(t, m, a.ID)
	if final.State != StateCanceled {
		t.Errorf("state = %s, want canceled", final.State)
	}
	if final.Error != errCancelRequested.Error() {
		t.Errorf("error = %q, want %q", final.Error, errCancelRequested)
	}
	if _, _, ok := m.Result(a.ID); ok {
		t.Error("canceled job has a result")
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer shutdownClean(t, m)
	if _, ok := m.Cancel("job-00000099"); ok {
		t.Error("canceling unknown job reported ok")
	}
}

// panicOnce is a test audit that panics on its first call and runs the real
// engine after that.
type panicOnce struct{ once sync.Once }

func (p *panicOnce) audit(ctx context.Context, part *partition.Partitioning, cfg core.Config) (*core.Result, error) {
	boom := false
	p.once.Do(func() { boom = true })
	if boom {
		panic("poisoned audit")
	}
	return core.AuditContext(ctx, part, cfg)
}

func TestAuditPanicFailsJobNotDispatcher(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxActiveJobs: 1, audit: (&panicOnce{}).audit})
	defer shutdownClean(t, m)

	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, a.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "poisoned audit") {
		t.Fatalf("state = %s error = %q", final.State, final.Error)
	}

	// The single dispatcher that hosted the panic must survive to run the
	// next job.
	b, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, b.ID); final.State != StateDone {
		t.Errorf("job after panic = %s (%s)", final.State, final.Error)
	}
	counters := m.Collector().Snapshot().Counters
	if counters[obs.MJobsFailed] != 1 || counters[obs.MJobsCompleted] != 1 {
		t.Errorf("failed=%d completed=%d", counters[obs.MJobsFailed], counters[obs.MJobsCompleted])
	}
}

func TestJobTimeout(t *testing.T) {
	gate := newGate() // never released: the job hangs until the timeout
	m := NewManager(Config{
		Workers:    1,
		JobTimeout: 50 * time.Millisecond,
		audit:      gate.audit,
	})
	defer shutdownClean(t, m)
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, a.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed (timeout is not a user cancel)", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("error = %q", final.Error)
	}
}

func TestGracefulDrain(t *testing.T) {
	m := NewManager(Config{Workers: 4, MaxActiveJobs: 2})
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		snap, err := m.Submit(testRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		snap, ok := m.Get(id)
		if !ok || snap.State != StateDone {
			t.Errorf("job %s after drain: ok=%v state=%s (%s)", id, ok, snap.State, snap.Error)
		}
	}
	if _, err := m.Submit(testRequest(t)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown = %v, want ErrDraining", err)
	}
	if err := m.Shutdown(ctx); err == nil {
		t.Error("second Shutdown must error")
	}
}

func TestForcedShutdownCancelsRunning(t *testing.T) {
	gate := newGate() // never released
	m := NewManager(Config{Workers: 1, audit: gate.audit})
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want DeadlineExceeded", err)
	}
	snap, ok := m.Get(a.ID)
	if !ok || snap.State != StateCanceled {
		t.Errorf("job after forced shutdown: ok=%v state=%s", ok, snap.State)
	}
	if snap.Error != errShutdown.Error() {
		t.Errorf("error = %q, want %q", snap.Error, errShutdown)
	}
}

func TestListAndRetention(t *testing.T) {
	m := NewManager(Config{Workers: 2, RetentionLimit: 2})
	defer shutdownClean(t, m)
	var last string
	for i := 0; i < 4; i++ {
		req := testRequest(t)
		req.Tenant = "acme"
		snap, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		last = snap.ID
		waitTerminal(t, m, snap.ID)
	}
	got := m.List("acme")
	if len(got) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(got))
	}
	if got[len(got)-1].ID != last {
		t.Errorf("newest retained = %s, want %s", got[len(got)-1].ID, last)
	}
	if other := m.List("globex"); len(other) != 0 {
		t.Errorf("tenant isolation: globex sees %d jobs", len(other))
	}
}

func TestTerminalHookFires(t *testing.T) {
	// The hook runs after the job's terminal state is published, so the
	// test waits on the hook itself, not on the job's state.
	seen := make(chan Snapshot, 4)
	m := NewManager(Config{
		Workers:    2,
		OnTerminal: func(s Snapshot) { seen <- s },
	})
	req := testRequest(t)
	req.Tenant = "acme"
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	select {
	case got = <-seen:
	case <-time.After(30 * time.Second):
		t.Fatal("terminal hook never fired")
	}
	if got.ID != snap.ID || got.Tenant != "acme" || got.State != StateDone {
		t.Fatalf("hook snapshot = %+v", got)
	}
	if got.Progress.PairsScanned == 0 {
		t.Error("hook snapshot missing compute usage")
	}
	shutdownClean(t, m)
	if extra := len(seen); extra != 0 {
		t.Errorf("hook fired %d more times", extra)
	}
}
