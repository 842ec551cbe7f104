package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcsf/internal/census"
	"lcsf/internal/hmda"
	"lcsf/internal/jobs"
	"lcsf/internal/obs"
)

// TestJobServiceLoad drives the full submit -> poll -> fetch lifecycle with
// 1000 concurrent clients against a deliberately small queue, asserting the
// service's hard invariants under contention:
//
//   - no lost jobs: every accepted submission reaches done and its result is
//     fetchable;
//   - no duplicated jobs: every accepted submission gets a unique ID;
//   - backpressure accounting: jobs.submitted == acceptances and
//     jobs.rejected == attempts - acceptances, exactly;
//   - lifecycle accounting: completed + failed + canceled == submitted, with
//     zero failed and zero canceled;
//   - determinism: all reports for the same (data, seed) are byte-identical;
//   - graceful drain: Shutdown returns clean and the queue/running gauges
//     read zero.
//
// It runs in `make check` under the race detector (loadtest-smoke), which is
// the configuration that matters: the scheduler noise the detector adds is
// exactly the stress the invariants must survive.
func TestJobServiceLoad(t *testing.T) {
	const clients = 1000

	// Small data and a cheap Monte-Carlo budget keep each job fast; the load
	// comes from concurrency, not per-job cost.
	model := census.Generate(census.Config{NumTracts: 100, Seed: 42})
	recs := hmda.Generate(model, hmda.Lender{Name: "T", Decisioned: 600, Bias: 0.2, Seed: 7})
	tbl, err := hmda.ToTable(recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	col := obs.NewCollector(64)
	acfg := cheapAudit()
	acfg.MCWorlds = 49
	acfg.MinRegionSize = 30
	mgr := jobs.NewManager(jobs.Config{
		Workers: 8, MaxActiveJobs: 4, QueueDepth: 32,
		RetentionLimit: 2 * clients,
		Collector:      col,
	})
	srv := New(Config{Audit: acfg, Collector: col, Jobs: mgr})

	var attempts, accepted atomic.Int64
	var mu sync.Mutex
	ids := make(map[string]int)
	results := make(map[string][]byte)
	var firstErr error
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = &testError{msg: format, args: args}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Submit, retrying through backpressure. The bounded queue is a
			// fraction of the client count, so 429s are expected and must be
			// survivable by honest retry with exponential backoff.
			var id string
			backoff := 2 * time.Millisecond
			for try := 0; ; try++ {
				attempts.Add(1)
				req := httptest.NewRequest("POST", "/jobs?cols=8&rows=5&seed=7", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code == http.StatusAccepted {
					var snap jobs.Snapshot
					if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || snap.ID == "" {
						fail("bad 202 body: %v %s", err, rec.Body.String())
						return
					}
					id = snap.ID
					accepted.Add(1)
					break
				}
				if rec.Code != http.StatusTooManyRequests {
					fail("submit = %d: %s", rec.Code, rec.Body.String())
					return
				}
				if rec.Header().Get("Retry-After") == "" {
					fail("429 without Retry-After")
					return
				}
				if try > 100000 {
					fail("client starved after %d submit attempts", try)
					return
				}
				time.Sleep(backoff)
				if backoff < 256*time.Millisecond {
					backoff *= 2
				}
			}
			mu.Lock()
			ids[id]++
			mu.Unlock()

			// Poll until terminal, backing off so a thousand pollers on a
			// small machine don't starve the audit workers they wait on.
			deadline := time.Now().Add(5 * time.Minute)
			poll := 10 * time.Millisecond
			for {
				if time.Now().After(deadline) {
					fail("job %s never finished", id)
					return
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id, nil))
				if rec.Code != http.StatusOK {
					fail("status %s = %d: %s", id, rec.Code, rec.Body.String())
					return
				}
				var snap jobs.Snapshot
				if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
					fail("status body: %v", err)
					return
				}
				if snap.State.Terminal() {
					if snap.State != jobs.StateDone {
						fail("job %s = %s (%s)", id, snap.State, snap.Error)
						return
					}
					break
				}
				time.Sleep(poll)
				if poll < 320*time.Millisecond {
					poll *= 2
				}
			}

			// Fetch the report.
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id+"/result", nil))
			if rec.Code != http.StatusOK {
				fail("result %s = %d: %s", id, rec.Code, rec.Body.String())
				return
			}
			mu.Lock()
			results[id] = rec.Body.Bytes()
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr.Error())
	}

	// No lost or duplicated jobs.
	if int64(len(ids)) != accepted.Load() {
		t.Errorf("accepted %d submissions but saw %d unique IDs", accepted.Load(), len(ids))
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("job ID %s handed to %d clients", id, n)
		}
	}
	if len(results) != clients {
		t.Errorf("fetched %d results, want %d", len(results), clients)
	}

	// Counter reconciliation: every submit attempt is accounted as exactly
	// one of submitted or rejected, and every submitted job terminated as
	// completed (nothing failed, nothing canceled, nothing lost).
	counters := col.Snapshot().Counters
	if got, want := counters[obs.MJobsSubmitted], accepted.Load(); got != want {
		t.Errorf("jobs.submitted = %d, want %d", got, want)
	}
	if got, want := counters[obs.MJobsRejected], attempts.Load()-accepted.Load(); got != want {
		t.Errorf("jobs.rejected = %d, want %d (attempts %d - accepted %d)",
			got, want, attempts.Load(), accepted.Load())
	}
	if counters[obs.MJobsFailed] != 0 || counters[obs.MJobsCanceled] != 0 {
		t.Errorf("failed=%d canceled=%d, want 0/0",
			counters[obs.MJobsFailed], counters[obs.MJobsCanceled])
	}
	if got := counters[obs.MJobsCompleted]; got != counters[obs.MJobsSubmitted] {
		t.Errorf("jobs.completed = %d != jobs.submitted = %d", got, counters[obs.MJobsSubmitted])
	}
	if accepted.Load() != clients {
		t.Errorf("accepted = %d, want %d (every client retries until accepted)",
			accepted.Load(), clients)
	}

	// Determinism: same data, same seed, same parameters -> byte-identical
	// reports, across every one of the thousand jobs regardless of engine
	// worker count, worker contention, or queue order.
	var ref []byte
	for id, data := range results {
		if ref == nil {
			ref = data
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("job %s report differs (%d vs %d bytes): determinism broken",
				id, len(data), len(ref))
		}
	}
	if len(ref) == 0 {
		t.Fatal("empty reference report")
	}

	// Graceful drain: nothing is left in flight, so Shutdown is clean and
	// the gauges agree.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
	gauges := col.Snapshot().Gauges
	//lint:floateq-ok gauge values are integral counts adjusted by +-1
	if gauges[obs.MJobsQueueDepth] != 0 || gauges[obs.MJobsRunning] != 0 {
		t.Errorf("post-drain gauges: queue_depth=%v running=%v, want 0/0",
			gauges[obs.MJobsQueueDepth], gauges[obs.MJobsRunning])
	}
}

// testError defers formatting to keep the client goroutines' hot path cheap.
type testError struct {
	msg  string
	args []any
}

func (e *testError) Error() string { return fmt.Sprintf(e.msg, e.args...) }
