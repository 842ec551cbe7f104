package server

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/report"
)

// fuzzMaxBody bounds the fuzzed request bodies. Bodies past it get the 413
// every oversized upload gets, so a fuzz run cannot allocate out of
// proportion to a small input.
const fuzzMaxBody = 64 << 10

// fuzzMaxGridCells bounds the grids the fuzzer may have audited. Larger
// grids the server accepts are legitimate but cost a region roster of up to
// maxGridCells entries per execution; grids the server rejects — the
// overflowing one included — are always run, since rejecting them is the
// behaviour under test.
const fuzzMaxGridCells = 10_000

// FuzzAuditRequest drives POST /audit with arbitrary query strings and
// bodies. Whatever arrives, the service answers 2xx with a JSON report that
// round-trips through report.ReadJSON, or a 4xx: never a 5xx and never a
// panic.
func FuzzAuditRequest(f *testing.F) {
	// A small LAR with loosened gates, so the seeds reach the pair cascade,
	// the Monte-Carlo test, and a non-empty report.
	valid := larBody(f, 200, 0.4).String()
	f.Add("cols=8&rows=4&min_region=10&delta=0.5&epsilon=0.0001&seed=1", valid)
	f.Add("cols=10&rows=5&min_region=5&delta=0.9&epsilon=0.000001&eta=0&alpha=0.5", valid)
	f.Add("", "")
	f.Add("cols=4294967296&rows=4294967296", validHeaderOnly())
	f.Add("epsilon=NaN&alpha=Inf", validHeaderOnly())
	f.Add("seed=-1&cols=zero&min_region=1.5", validHeaderOnly())
	f.Add("delta=1e400&eta=-0", validHeaderOnly())
	f.Add("", noDecisionedCSV())

	srv := New(Config{MaxBodyBytes: fuzzMaxBody})
	f.Fuzz(func(t *testing.T, query, body string) {
		if fuzzGridTooCostly(query) {
			t.Skip()
		}
		req := httptest.NewRequest("POST", "/audit", bytes.NewReader([]byte(body)))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		switch {
		case rec.Code >= 200 && rec.Code < 300:
			out := rec.Body.Bytes()
			doc, err := report.ReadJSON(bytes.NewReader(out))
			if err != nil {
				t.Fatalf("status %d with an unreadable report: %v\n%s", rec.Code, err, out)
			}
			var again bytes.Buffer
			if err := doc.WriteJSON(&again); err != nil {
				t.Fatalf("re-encoding the report: %v", err)
			}
			if !bytes.Equal(again.Bytes(), out) {
				t.Fatalf("report does not round-trip through ReadJSON:\nserved  %s\nrewrote %s", out, again.Bytes())
			}
		case rec.Code >= 400 && rec.Code < 500:
		default:
			t.Fatalf("query %q: status %d: %s", query, rec.Code, rec.Body.String())
		}
	})
}

// fuzzGridTooCostly reports whether the query asks for a grid the server
// would accept but that exceeds fuzzMaxGridCells.
func fuzzGridTooCostly(query string) bool {
	q, _ := url.ParseQuery(query)
	p, err := parseAuditParams(q, core.DefaultConfig())
	if err != nil {
		return false
	}
	return p.Cols > fuzzMaxGridCells/p.Rows
}
