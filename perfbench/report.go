package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// steadiness reads the outputs of N runs (files holding what each run
// printed) and prints, per workload and end-to-end metric: the median,
// the quartiles, IQR/median, the median difference between the two
// interleaved halves of the runs, and the raw values beside the
// calibrated ones. Bounds are read from BENCHMARK.json when it is in the
// working directory.
func steadiness(files []string, w io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("--report needs the output files of the runs")
	}
	runs := map[string][]detail{}
	var order []string
	for _, path := range files {
		ds, err := readDetails(path)
		if err != nil {
			return err
		}
		for _, d := range ds {
			if d.Trace {
				continue
			}
			if _, ok := runs[d.Workload]; !ok {
				order = append(order, d.Workload)
			}
			runs[d.Workload] = append(runs[d.Workload], d)
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("no untraced run results in %s", strings.Join(files, ", "))
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Fprintf(w, "%-12s %-17s %3s %12s %12s %12s %8s %8s %6s %12s %8s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr/med", "halves", "bound", "raw median", "raw iqr")
	for _, wl := range order {
		ds := runs[wl]
		for _, m := range endToEnd {
			cal, raw := make([]float64, len(ds)), make([]float64, len(ds))
			for i, d := range ds {
				cal[i], raw[i] = d.Metrics[m.name], d.Raw[m.name]
			}
			med, q1, q3 := spread(cal)
			rmed, rq1, rq3 := spread(raw)
			bound := "-"
			if b, ok := bounds[m.name]; ok {
				bound = fmt.Sprintf("%.2f", b)
			}
			fmt.Fprintf(w, "%-12s %-17s %3d %12.6g %12.6g %12.6g %8.4f %8.4f %6s %12.6g %8.4f\n",
				wl, m.name, len(ds), med, q1, q3, rel(q3-q1, med), halvesDiff(cal), bound, rmed, rel(rq3-rq1, rmed))
		}
		fails, steal := 0, make([]float64, len(ds))
		for i, d := range ds {
			if r, _ := d.Info["error_rate"].(float64); r > 0 {
				fails++
			}
			steal[i], _ = d.Info["host_steal_share"].(float64)
		}
		fmt.Fprintf(w, "%-12s runs with errors: %d of %d; median host steal share %.3f\n", wl, fails, len(ds), median(steal))
	}
	return nil
}

func spread(xs []float64) (med, q1, q3 float64) {
	q1, med, q3 = quartiles(xs)
	return med, q1, q3
}

func rel(x, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return x / base
}

// halvesDiff is |median(even runs) − median(odd runs)| over the overall
// median: how far two interleaved sets of runs of one program disagree.
func halvesDiff(xs []float64) float64 {
	var a, b []float64
	for i, x := range xs {
		if i%2 == 0 {
			a = append(a, x)
		} else {
			b = append(b, x)
		}
	}
	if len(b) == 0 {
		return math.NaN()
	}
	return rel(math.Abs(median(a)-median(b)), median(xs))
}

// readDetails returns the detail lines of one output file, in order.
func readDetails(path string) ([]detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []detail
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.Contains(string(line), `"tag":"`+detailTag+`"`) {
			continue
		}
		var d detail
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, d)
	}
	return out, sc.Err()
}

// benchmarkFile is the part of BENCHMARK.json the report and the tests
// read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bf benchmarkFile
	if json.Unmarshal(b, &bf) != nil {
		return out
	}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// sortedKeys is used where output order must not depend on map order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
