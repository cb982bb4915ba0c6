// Command perfbench is the repository benchmark: one command that builds
// seed-determined fixtures, drives one named workload against the program,
// checks every answer, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload match-read --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	match-read    one serve node restored from a ~97k-document snapshot,
//	              read-only /v1/match top-10 traffic
//	ingest-mixed  one durable serve node (~33k documents) taking single-entry
//	              ingests beside /v1/match
//	study         the paper's measurement in-process: Tables 4-8 and the
//	              corpus clone study
//
// and, outside BENCHMARK.json until the defects their checks expose are
// fixed, ingest-analyze (ingest-mixed with /v1/analyze traffic) and
// study-online (study, then the online snippet question over the study's
// own corpus).
//
// With --trace 0 the run measures end to end with no tracing; with --trace 1
// it replays the same inputs in-process, records a span around every call
// into a layer's public API, and prints per-layer metrics instead. The last
// line of standard output is one JSON object; everything before it is the
// human-readable report. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config carries the command line of one run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: fixtures and run directories live under root/.bench_build
	serveBin string // serve binary built from this checkout
	// wrongRef perturbs the answer reference so the checks must fail: a
	// self-test of the checking code, never used for measurement.
	wrongRef bool
	// layers are the per-layer metrics a traced run prints (BENCHMARK.json).
	layers []metric
}

// work returns the benchmark's private directory inside the checkout.
func (c config) work(parts ...string) string {
	return filepath.Join(append([]string{c.root, ".bench_build", "perfbench"}, parts...)...)
}

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report collects a run's outcome: the gated metrics that go into the final
// JSON line, the human-readable lines printed before it, and the answer
// accounting.
type report struct {
	gated     []metric
	lines     []metric
	notes     []string
	attempted int
	failed    int
	wrong     int // answers that disagreed with the reference (subset of failed)
}

// gate records a metric that appears in the final JSON line (and the report).
func (r *report) gate(name, unit string, v float64, n int) {
	m := metric{name, unit, v, n}
	r.gated = append(r.gated, m)
	r.lines = append(r.lines, m)
}

// add records a report-only metric.
func (r *report) add(name, unit string, v float64, n int) {
	r.lines = append(r.lines, metric{name, unit, v, n})
}

// latency reports the median and the 90th percentile of xs (ms) under
// prefix, and the highest of the 99th, 98th and 95th percentiles that has
// at least ten samples beyond it.
func (r *report) latency(prefix string, xs []float64) {
	n := len(xs)
	r.add(prefix+"_p50_ms", "ms", quantile(xs, 0.50), n)
	r.add(prefix+"_p90_ms", "ms", quantile(xs, 0.90), n)
	for _, q := range []int{99, 98, 95} {
		if beyond(n, float64(q)/100) >= 10 {
			r.add(fmt.Sprintf("%s_p%d_ms", prefix, q), "ms", quantile(xs, float64(q)/100), n)
			break
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds one operation outcome into the answer accounting.
func (r *report) count(o outcome) {
	r.attempted++
	if o.failed() {
		r.failed++
	}
	if o.wrong {
		r.wrong++
		if r.wrong <= 3 {
			r.note("wrong %s answer: %s", o.kind, o.why)
		}
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: match-read, ingest-mixed, study, ingest-analyze or study-online")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: arrival times and query draws")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced in-process replay printing per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.serveBin, "serve", "", "path of the serve binary built from this checkout")
	flag.BoolVar(&cfg.wrongRef, "wrong-reference", false, "perturb the answer reference (self-test: the run must fail)")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fatal(err)
	}
	cfg.root = root
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be ≥ 1"))
	}

	w, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", ")))
	}
	rep := &report{}
	if cfg.trace {
		if cfg.layers, err = perLayer(cfg.root); err != nil {
			fatal(err)
		}
		err = w.traced(cfg, rep)
	} else {
		err = w.timed(cfg, rep)
	}
	if err != nil {
		fatal(err)
	}
	printReport(cfg, rep)
	if rep.wrong > 0 || rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed (%d wrong answers)\n", rep.failed, rep.attempted, rep.wrong)
		os.Exit(1)
	}
}

// workload binds a name to its timed run and its traced replay.
type workload struct {
	timed  func(config, *report) error
	traced func(config, *report) error
}

// workloads holds the three of BENCHMARK.json and two that are left out of
// it because a program defect makes their answer checks fail in some runs:
// ingest-analyze (ingest-mixed plus /v1/analyze) and study-online (study
// plus the online snippet queries). README.md, "Known defects", says which.
var workloads = map[string]workload{
	"match-read":     {timed: timedMatchRead, traced: tracedMatchRead},
	"ingest-mixed":   {timed: timedIngestMixed, traced: tracedIngestMixed},
	"study":          {timed: timedStudy, traced: tracedStudy},
	"ingest-analyze": {timed: timedIngestAnalyze, traced: tracedIngestAnalyze},
	"study-online":   {timed: timedStudyOnline, traced: tracedStudyOnline},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// printReport writes the human-readable lines, then the JSON result line.
func printReport(cfg config, r *report) {
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d mode=%s gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, runtime.GOMAXPROCS(0))
	for _, m := range r.lines {
		fmt.Printf("  %-30s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  answers: attempted=%d failed=%d wrong=%d\n", r.attempted, r.failed, r.wrong)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(r.gated))
	for _, m := range r.gated {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = jm{v, m.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.wrong == 0 && r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// --- sample statistics -------------------------------------------------------

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// median of xs (sorted in place); the mean of the two middle values for even
// counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
