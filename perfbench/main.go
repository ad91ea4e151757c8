// Command perfbench is ringsched's performance ledger: one closed-loop,
// in-process benchmark per workload, every timing corrected for host
// speed. See README.md for the workloads, metrics and method.
//
//	perfbench --workload analyze-mix --seed 1 --seconds 20 --trace 0
//	perfbench --report run1.out run2.out ...
//
// The last line of standard output is the run's result as one JSON
// object; the line before it carries raw timings, calibration and sample
// counts, which the --report mode reads back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// detailTag marks the detail line in a run's output.
const detailTag = "perfbench-detail"

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type detail struct {
	Tag      string             `json:"tag"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
	Raw      map[string]float64 `json:"raw"`
	Info     map[string]any     `json:"info"`
	Errors   []string           `json:"errors,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	var report bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "self-test: corrupt one expected output (the run must report failures)")
	fs.StringVar(&cfg.ledgerDir, "ledger", ".bench_build/ledger", "directory of exact-count ledgers (empty disables)")
	fs.StringVar(&cfg.spansDir, "spans", ".bench_build/spans", "directory for traced runs' span dumps (empty disables)")
	fs.BoolVar(&report, "report", false, "print the steadiness of the runs whose outputs are the arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if report {
		if err := steadiness(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stderr, cfg, o)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		res.Metrics[d.name] = valueUnit{Value: o.metrics[d.name], Unit: d.unit}
	}
	det := detail{Tag: detailTag, Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: o.metrics, Raw: o.raw, Info: o.info, Errors: o.errs}
	for _, v := range []any{det, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printSummary writes a human-readable table of the run to w.
func printSummary(w io.Writer, cfg config, o *outcome) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: %d ops, %d failed, calibration %.3f ms (ref %.3f)\n",
		cfg.workload, cfg.seed, cfg.trace, o.attempted, o.failed, o.info["calibration_ms"], calRefMs)
	for _, e := range o.errs {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, k := range sortedKeys(o.metrics) {
		if r, ok := o.raw[k]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g   raw %14.6g\n", k, o.metrics[k], r)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g\n", k, o.metrics[k])
		}
	}
}
