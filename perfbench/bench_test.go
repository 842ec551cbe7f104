package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrink every input so each workload runs in a few seconds.
var smokeSizes = sizes{
	sync:      larSize{records: 4000, bodies: 3},
	jobs:      larSize{records: 4000, bodies: 3},
	regions:   200,
	batch:     10,
	batches:   8,
	warmup:    2,
	setupReps: 2,
	minOps:    100,
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks that the result line carries exactly the metrics BENCHMARK.json
// names, each with its unit, and that every output verified.
func TestEveryMetricEmitted(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				out, err := runWorkload(w, params{
					seed:     7,
					seconds:  2 * time.Second,
					trace:    traced,
					sizes:    smokeSizes,
					traceDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := out.print(&buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, buf.String())
				}
				for name, unit := range want[traced] {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing\n%s", name, buf.String())
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[traced][name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if !traced {
					if s := res.Metrics["success_share"].Value; s != 1 {
						t.Errorf("success_share = %v, want 1", s)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestSelfTimeSubtractsChildren checks self times against a hand-built tree.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{Name: "root", Start: 0, End: 10, Parent: -1, Op: 1},
		{Name: "a", Start: 1, End: 4, Parent: 0, Op: 1},
		{Name: "b", Start: 3, End: 6, Parent: 0, Op: 1}, // overlaps a
		{Name: "a", Start: 7, End: 8, Parent: 0, Op: 1},
	}
	self := tr.selfTimes()
	if got := self["root"][1]; got != 4 {
		t.Errorf("root self = %v, want 4", got)
	}
	if got := self["a"][1]; got != 4 {
		t.Errorf("a self = %v, want 4", got)
	}
}
