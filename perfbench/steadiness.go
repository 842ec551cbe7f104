package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness report reads
// to set each spread beside its bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// steadyRow is one workload x metric line of the steadiness report.
type steadyRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	RelIQR   float64   `json:"rel_iqr"`
	Bound    float64   `json:"bound,omitempty"`
}

// runSteadiness runs runs seeds (first, first+1, ...) of each named workload
// ("all" or "" for every workload) as child processes of this binary, and
// prints each end-to-end metric's median, quartiles and relative IQR. It
// fails when any run fails or reports an incorrect output.
func runSteadiness(w io.Writer, name string, first uint64, seconds, runs int) error {
	names := workloadNames()
	if name != "" && name != "all" {
		if _, ok := lookupWorkload(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if bf, err := readBenchmarkFile("BENCHMARK.json"); err == nil {
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	var rows []steadyRow
	for _, wl := range names {
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			seed := first + uint64(r)
			res, err := runChild(exe, wl, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", wl, seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(w, "run %s seed %d: attempted %d\n", wl, seed, res.Attempted)
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, q2, q3 := quartiles(values[k])
			row := steadyRow{Workload: wl, Metric: k, Values: values[k], Q1: q1, Median: q2, Q3: q3, Bound: bounds[k]}
			if q2 != 0 {
				row.RelIQR = (q3 - q1) / math.Abs(q2)
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintf(w, "%-12s %-18s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "rel_iqr", "bound")
	for _, r := range rows {
		bound := "-"
		if r.Bound > 0 {
			bound = strconv.FormatFloat(r.Bound, 'g', 3, 64)
		}
		fmt.Fprintf(w, "%-12s %-18s %12.6g %12.6g %12.6g %8.4f %8s\n", r.Workload, r.Metric, r.Q1, r.Median, r.Q3, r.RelIQR, bound)
	}
	line, err := json.Marshal(map[string]any{"runs": runs, "first_seed": first, "seconds": seconds, "rows": rows})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runChild runs one untraced benchmark run and parses its result line.
func runChild(exe, wl string, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return &res, nil
}
