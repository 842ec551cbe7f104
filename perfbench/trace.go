package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"` // seconds since the tracer started
	End      float64 `json:"end_s"`
	Parent   int     `json:"parent"`
	Op       int     `json:"op"`
	Workload string  `json:"workload"`
}

// tracer keeps spans and per-operation counts in memory until the run ends.
// A nil tracer records nothing, which is how untraced operations run.
type tracer struct {
	workload string
	epoch    time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]map[int]float64 // metric -> op -> value
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), counts: map[string]map[int]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op, Workload: t.workload})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose duration the program measured itself, laid out
// from start.
func (t *tracer) add(name string, parent, op int, start float64, d time.Duration) float64 {
	if t == nil {
		return start
	}
	end := start + d.Seconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op, Workload: t.workload})
	t.mu.Unlock()
	return end
}

// startOf returns span id's start.
func (t *tracer) startOf(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// count adds v to a per-operation figure.
func (t *tracer) count(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.counts[name]
	if m == nil {
		m = map[int]float64{}
		t.counts[name] = m
	}
	m[op] += v
}

// selfTimes returns, per span name, the per-operation sum of self time: a
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]map[int]float64{}
	for i, s := range t.spans {
		self := (s.End - s.Start) - covered(t.spans, children[i], s.Start, s.End)
		m := out[s.Name]
		if m == nil {
			m = map[int]float64{}
			out[s.Name] = m
		}
		m[s.Op] += self
	}
	return out
}

// covered is the length of [lo, hi] that the union of the given spans covers.
func covered(spans []span, ids []int, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores every span as one JSON line under dir.
func (t *tracer) write(dir string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}

// medianOf is the median of a per-operation figure, 0 when never recorded.
func medianOf(perOp map[int]float64) float64 {
	if len(perOp) == 0 {
		return 0
	}
	vs := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		vs = append(vs, v)
	}
	return median(vs)
}

// spreadOf is the smallest and largest of values.
func spreadOf(values []float64) (lo, hi float64) {
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
