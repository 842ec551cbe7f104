// Package jobs turns the LC-SF audit into an asynchronous, supervised job
// service: callers submit a parsed LAR plus audit parameters and get a job
// ID back immediately, then poll status (with the audit engine's funnel
// counters as progress) and fetch the finished JSON or GeoJSON report.
// Each job runs as one core.AuditContext call on a dispatcher goroutine,
// with max(1, Workers/MaxActiveJobs) engine workers, so its report is
// byte-identical to the synchronous audit of the same request. Around that
// call the job layer adds a bounded queue with backpressure, per-job
// timeouts, cancellation, panic isolation, and a graceful drain.
package jobs

import (
	"errors"
	"sync"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
)

// State is a job's lifecycle position. Transitions form a DAG:
//
//	queued -> running -> done
//	       \          -> failed   (error, timeout, panic)
//	        \         -> canceled (DELETE, or forced shutdown)
//	         -> canceled          (DELETE while still queued)
//
// Terminal states never change again.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request is one audit job's input: the decisioned observations, the grid
// to partition them on, the fully resolved audit configuration, and the
// output format. The manager owns the observation slice after Submit
// succeeds (it is released when the job reaches a terminal state).
type Request struct {
	// Tenant attributes the job for isolation, per-tenant metrics, and
	// budget charging; "" is the anonymous tenant.
	Tenant string
	Obs    []partition.Observation
	Grid   geo.Grid
	// Audit is the audit configuration; the manager overrides its Workers
	// with the job's share of Config.Workers.
	Audit core.Config
	// GeoJSON selects the flagged-regions GeoJSON report instead of the
	// full JSON document.
	GeoJSON bool
}

// Progress is the job's audit funnel, read from the job's private obs
// collector; the audit engine publishes its counters there when the audit
// finishes.
type Progress struct {
	PairsScanned int64 `json:"pairs_scanned"`
	Candidates   int64 `json:"candidates"`
	Flagged      int64 `json:"flagged"`
}

// Snapshot is a job's externally visible status — what GET /jobs/{id}
// serializes.
type Snapshot struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant,omitempty"`
	State       State     `json:"state"`
	Format      string    `json:"format"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// Attempts is 1 once the job has started running, 0 before.
	Attempts int      `json:"attempts,omitempty"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
	// ResultBytes is the finished report's size; 0 until done.
	ResultBytes int `json:"result_bytes,omitempty"`
}

// Submission errors; callers map them to HTTP statuses (429 + Retry-After
// and 503 respectively).
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining means the manager is shutting down and accepts no work.
	ErrDraining = errors.New("jobs: manager draining")
)

// job is the manager's internal record. Mutable fields are guarded by mu;
// the identity fields and the per-job collector are set once at submit.
type job struct {
	id      string
	tenant  string
	geojson bool
	col     *obs.Collector

	mu        sync.Mutex
	req       Request // Obs released at terminal
	state     State
	errText   string
	attempts  int
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    func(error) // non-nil while running
	terminal  bool
	result    []byte
	ctype     string
}
