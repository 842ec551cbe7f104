package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/jobs"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
	"lcsf/internal/server"
	"lcsf/internal/table"
)

// The server's default grid, which every LAR request here uses.
const gridCols, gridRows = 100, 50

// larBody is one generated LAR CSV body with the reports the server must
// return for it, rendered at set-up straight from the generated records.
type larBody struct {
	csv          []byte
	records      int // CSV rows
	decisioned   int // approved or denied rows, the audit's input
	refJSON      []byte
	refGeoJSON   []byte
	pairsScanned int64
	eligible     int
	candidates   int
}

// mix derives a well-spread 64-bit seed from a workload seed and an index
// (splitmix64), so neighbouring seeds share no lender or census stream.
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// censusSeed fixes the synthetic geography every pool is drawn over, as the
// real register's tracts are fixed; the workload seed picks the lenders.
const censusSeed = 1

// buildLARPool generates the body pool of a seed: one biased lender per
// body, drawn over the fixed synthetic census.
func buildLARPool(seed uint64, sz larSize) ([]larBody, error) {
	model := census.Generate(census.Config{Seed: censusSeed})
	grid := geo.NewGrid(geo.ContinentalUS, gridCols, gridRows)
	pool := make([]larBody, sz.bodies)
	for i := range pool {
		recs := hmda.Generate(model, hmda.Lender{
			Name:       fmt.Sprintf("lender-%d", i),
			Decisioned: sz.records,
			Bias:       0.11,
			Seed:       mix(seed, uint64(i)+1),
		})
		tbl, err := hmda.ToTable(recs)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		obsv := hmda.ToObservations(recs)
		cfg := core.DefaultConfig()
		col := obs.NewCollector(0)
		cfg.Collector = col
		part := partition.ByGrid(grid, obsv, partition.Options{Seed: cfg.Seed})
		res, err := core.AuditContext(context.Background(), part, cfg)
		if err != nil {
			return nil, fmt.Errorf("body %d: reference audit: %w", i, err)
		}
		var js bytes.Buffer
		if err := report.Build(part, grid, res).WriteJSON(&js); err != nil {
			return nil, fmt.Errorf("body %d: reference JSON: %w", i, err)
		}
		gj, err := report.GeoJSON(part, grid, res)
		if err != nil {
			return nil, fmt.Errorf("body %d: reference GeoJSON: %w", i, err)
		}
		pool[i] = larBody{
			csv:          buf.Bytes(),
			records:      len(recs),
			decisioned:   len(obsv),
			refJSON:      js.Bytes(),
			refGeoJSON:   gj,
			pairsScanned: col.Snapshot().Counter(obs.MAuditPairsScanned),
			eligible:     res.EligibleRegions,
			candidates:   res.Candidates,
		}
	}
	return pool, nil
}

// larService is the real server with its default job manager, built the way
// server.New builds it so that the manager can be shut down at the end.
type larService struct {
	pool    []larBody
	handler http.Handler
	jobs    *jobs.Manager

	// Traced runs: handler seconds per body, and the seconds of the layers
	// that handler runs synchronously, per body.
	mu            sync.Mutex
	handlerByBody map[int][]float64
	layersByBody  map[int][]float64
}

func newLARService(p params, sz larSize) (*larService, error) {
	pool, err := buildLARPool(p.seed, sz)
	if err != nil {
		return nil, err
	}
	col := obs.NewCollector(0)
	mgr := jobs.NewManager(jobs.Config{Collector: col})
	return &larService{
		pool:          pool,
		handler:       server.New(server.Config{Collector: col, Jobs: mgr}),
		jobs:          mgr,
		handlerByBody: map[int][]float64{},
		layersByBody:  map[int][]float64{},
	}, nil
}

func (s *larService) body(seq int) (*larBody, int) {
	i := seq % len(s.pool)
	return &s.pool[i], i
}

func (s *larService) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.jobs.Shutdown(ctx) // an idle manager drains at once; a timeout only leaks goroutines we exit past
}

func (s *larService) finish() error { return nil }

func (s *larService) inputs() int { return len(s.pool) }

func (s *larService) facts(prov map[string]any) {
	var bytes, records, decisioned, eligible, candidates []float64
	for _, b := range s.pool {
		bytes = append(bytes, float64(len(b.csv)))
		records = append(records, float64(b.records))
		decisioned = append(decisioned, float64(b.decisioned))
		eligible = append(eligible, float64(b.eligible))
		candidates = append(candidates, float64(b.candidates))
	}
	prov["bodies"] = len(s.pool)
	prov["body_bytes_median"] = median(bytes)
	prov["records_median"] = median(records)
	prov["decisioned_median"] = median(decisioned)
	prov["eligible_regions_median"] = median(eligible)
	prov["candidate_pairs_median"] = median(candidates)
	prov["grid"] = fmt.Sprintf("%dx%d", gridCols, gridRows)
}

// serve runs one request through the real handler under a span.
func (s *larService) serve(tr *tracer, name string, parent, op int, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	sp := tr.begin(name, parent, op)
	s.handler.ServeHTTP(rec, req)
	tr.end(sp)
	return rec
}

// layers runs body seq%bodies through the layers handleAudit calls, in
// order, each under its span, and checks the rendered report against the
// reference. syncLayers names the layers the workload's handler runs itself,
// whose summed time server.overhead_s subtracts from the handler's.
func (s *larService) layers(seq int, tr *tracer, asGeoJSON bool, syncLayers []string) error {
	b, bi := s.body(seq)
	root := tr.begin("layers", -1, seq)
	defer tr.end(root)
	took := map[string]float64{}
	step := func(name string, f func() error) (int, error) {
		sp := tr.begin(name, root, seq)
		t0 := time.Now()
		err := f()
		took[name] = time.Since(t0).Seconds()
		tr.end(sp)
		return sp, err
	}

	var tbl *table.Table
	a0 := readRuntime().allocB
	if _, err := step("table.read_csv", func() (err error) {
		tbl, err = table.ReadCSV(bytes.NewReader(b.csv), hmda.Schema())
		return err
	}); err != nil {
		return err
	}
	tr.count(seq, "table.alloc_bytes_per_body_byte", float64(readRuntime().allocB-a0)/float64(len(b.csv)))

	var recs []hmda.Record
	var obsv []partition.Observation
	step("hmda.convert", func() error {
		recs = hmda.FromTable(tbl)
		obsv = hmda.ToObservations(recs)
		return nil
	})
	tr.count(seq, "hmda.records", float64(len(recs)))

	cfg := core.DefaultConfig()
	grid := geo.NewGrid(geo.ContinentalUS, gridCols, gridRows)
	var part *partition.Partitioning
	step("partition.by_grid", func() error {
		part = partition.ByGrid(grid, obsv, partition.Options{Seed: cfg.Seed})
		return nil
	})

	col := obs.NewCollector(0)
	cfg.Collector = col
	var res *core.Result
	sp, err := step("core.audit", func() (err error) {
		res, err = core.AuditContext(context.Background(), part, cfg)
		return err
	})
	if err != nil {
		return err
	}
	after := col.Snapshot()
	engineFigures(tr, seq, sp, obs.Snapshot{}, after)
	scanned := float64(after.Counter(obs.MAuditPairsScanned))
	tr.count(seq, "partition.eligible_regions", float64(res.EligibleRegions))
	tr.count(seq, "core.pairs_scanned", scanned)
	tr.count(seq, "core.candidates", float64(res.Candidates))
	tr.count(seq, "core.flagged", float64(len(res.Pairs)))
	if sweep := after.Histograms[obs.MAuditPhaseSweepSeconds].Sum; sweep > 0 {
		tr.count(seq, "core.scored_pairs_per_s", scanned/sweep)
	}

	var out, want []byte
	if asGeoJSON {
		if _, err := step("report.geojson", func() (err error) {
			out, err = report.GeoJSON(part, grid, res)
			return err
		}); err != nil {
			return err
		}
		want = b.refGeoJSON
	} else {
		var doc *report.Document
		step("report.build", func() error {
			doc = report.Build(part, grid, res)
			return nil
		})
		var buf bytes.Buffer
		if _, err := step("report.write_json", func() error { return doc.WriteJSON(&buf) }); err != nil {
			return err
		}
		out, want = buf.Bytes(), b.refJSON
	}
	tr.count(seq, "report.bytes", float64(len(out)))
	if !bytes.Equal(out, want) {
		return errors.New("layer-by-layer report differs from the reference")
	}

	var sum float64
	for _, name := range syncLayers {
		sum += took[name]
	}
	s.mu.Lock()
	s.layersByBody[bi] = append(s.layersByBody[bi], sum)
	s.mu.Unlock()
	return nil
}

// recordHandler notes one traced handler time for body bi.
func (s *larService) recordHandler(bi int, d float64) {
	s.mu.Lock()
	s.handlerByBody[bi] = append(s.handlerByBody[bi], d)
	s.mu.Unlock()
}

// derive sets server.overhead_s: per body, the median handler time minus the
// median self-time of the layers that handler runs; then the median over
// bodies.
func (s *larService) derive(_ *tracer, m map[string]metric) {
	var over []float64
	for bi, hs := range s.handlerByBody {
		if ls, ok := s.layersByBody[bi]; ok {
			over = append(over, median(hs)-median(ls))
		}
	}
	m["server.overhead_s"] = metric{median(over), "s"}
}

// larSync is the lar-sync workload: one client POSTs bodies to /audit.
type larSync struct{ *larService }

func setupLARSync(p params) (instance, error) {
	s, err := newLARService(p, p.sizes.sync)
	if err != nil {
		return nil, err
	}
	return larSync{s}, nil
}

func (w larSync) op(_, seq int, tr *tracer) (time.Duration, error) {
	b, bi := w.body(seq)
	req := httptest.NewRequest(http.MethodPost, "/audit", bytes.NewReader(b.csv))
	root := tr.begin("op", -1, seq)
	t0 := time.Now()
	rec := w.serve(tr, "server.handler", root, seq, req)
	d := time.Since(t0)
	tr.end(root)
	if tr != nil {
		tr.count(seq, "server.handler_s", d.Seconds())
		w.recordHandler(bi, d.Seconds())
	}
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("POST /audit: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), b.refJSON) {
		return d, errors.New("POST /audit: report differs from the reference")
	}
	return d, nil
}

func (w larSync) layers(seq int, tr *tracer) error {
	return w.larService.layers(seq, tr, false, []string{
		"table.read_csv", "hmda.convert", "partition.by_grid", "core.audit", "report.build", "report.write_json",
	})
}

// larJobs is the lar-jobs workload: clients run submit -> poll -> fetch.
type larJobs struct{ *larService }

// pollInterval is how long a lar-jobs client waits between status polls.
const pollInterval = 5 * time.Millisecond

func setupLARJobs(p params) (instance, error) {
	s, err := newLARService(p, p.sizes.jobs)
	if err != nil {
		return nil, err
	}
	return larJobs{s}, nil
}

// geoJSONJob reports whether operation seq asks for GeoJSON: every other job.
func geoJSONJob(seq int) bool { return seq%2 == 1 }

func (w larJobs) op(_, seq int, tr *tracer) (time.Duration, error) {
	b, bi := w.body(seq)
	target, want := "/jobs", b.refJSON
	if geoJSONJob(seq) {
		target, want = "/jobs?format=geojson", b.refGeoJSON
	}
	root := tr.begin("op", -1, seq)
	defer tr.end(root)
	t0 := time.Now()
	var id string
	submits, rejected := 0, 0
	for id == "" {
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(b.csv))
		ts := time.Now()
		rec := w.serve(tr, "server.submit", root, seq, req)
		submits++
		switch rec.Code {
		case http.StatusAccepted:
			id = rec.Header().Get("X-Job-Id")
			if tr != nil {
				hs := time.Since(ts).Seconds()
				tr.count(seq, "server.handler_s", hs)
				w.recordHandler(bi, hs)
			}
		case http.StatusTooManyRequests:
			rejected++
			time.Sleep(pollInterval)
		default:
			return time.Since(t0), fmt.Errorf("POST /jobs: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	polls := 0
	for {
		rec := w.serve(tr, "server.poll", root, seq, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
		polls++
		if rec.Code != http.StatusOK {
			return time.Since(t0), fmt.Errorf("GET /jobs/%s: status %d", id, rec.Code)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			return time.Since(t0), fmt.Errorf("GET /jobs/%s: %w", id, err)
		}
		if snap.State == jobs.StateDone {
			break
		}
		if snap.State.Terminal() {
			return time.Since(t0), fmt.Errorf("job %s ended %s: %s", id, snap.State, snap.Error)
		}
		time.Sleep(pollInterval)
	}
	rec := w.serve(tr, "server.fetch", root, seq, httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/result", nil))
	fetched := time.Now()
	d := fetched.Sub(t0)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("GET /jobs/%s/result: status %d", id, rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		return d, fmt.Errorf("job %s: result differs from the sync reference", id)
	}
	if tr != nil {
		snap, ok := w.jobs.Get(id)
		if !ok {
			return d, fmt.Errorf("job %s: no longer retained", id)
		}
		tr.count(seq, "jobs.queue_wait_s", snap.StartedAt.Sub(snap.SubmittedAt).Seconds())
		tr.count(seq, "jobs.run_s", snap.FinishedAt.Sub(snap.StartedAt).Seconds())
		tr.count(seq, "jobs.fetch_lag_s", fetched.Sub(snap.FinishedAt).Seconds())
		tr.count(seq, "jobs.polls_per_job", float64(polls))
		tr.count(seq, "jobs.attempts_per_job", float64(snap.Attempts))
		tr.count(seq, "jobs.rejected_share", float64(rejected)/float64(submits))
		tr.count(seq, "jobs.pairs_scanned_over_sync", float64(snap.Progress.PairsScanned)/float64(max(b.pairsScanned, 1)))
	}
	return d, nil
}

func (w larJobs) layers(seq int, tr *tracer) error {
	return w.larService.layers(seq, tr, geoJSONJob(seq), []string{"table.read_csv", "hmda.convert"})
}
