package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xbench/internal/core"
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     uint64
	// seconds scales the frozen op counts (refSeconds = counts as frozen).
	seconds float64
	trace   bool
	// quick shrinks databases, set-up repeats and op counts to smoke-test
	// scale: every code path runs, no number means anything.
	quick bool
	// scratch holds journals and scratch logs; traceDir receives
	// trace_<workload>.json on a traced run.
	scratch  string
	traceDir string
	out      io.Writer
}

// metricValue and result are the contract's last-line JSON.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// refKey names one reference answer: the native engine's warm-up result
// for a query, through the same kind of stack the other engines use.
type refKey struct {
	class core.Class
	q     core.QueryID
}

// run is the state of one invocation.
type run struct {
	cfg  runConfig
	spec *spec
	ctx  context.Context
	tr   *tracer

	// scale multiplies frozen op counts; setupReps is how many times each
	// engine's set-up is repeated for the median.
	scale     float64
	setupReps int

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	// values holds the metrics produced so far; samples the sample count
	// printed beside a latency metric.
	values  map[string]float64
	samples map[string]int

	ref map[refKey]core.Result
}

func newRun(cfg runConfig, sp *spec) *run {
	r := &run{
		cfg: cfg, spec: sp, ctx: context.Background(),
		scale: cfg.seconds / refSeconds, setupReps: 5,
		values: map[string]float64{}, samples: map[string]int{},
		ref: map[refKey]core.Result{},
	}
	if cfg.quick {
		r.scale, r.setupReps = 0.02, 1
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// attempt counts n operations whose outcome is checked.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// failf counts one failed, refused or wrong-answer operation. The first
// few are kept verbatim for the report.
func (r *run) failf(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one attempted gate and fails it unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.failf(format, args...)
	}
}

// set records a metric value; n > 0 is the sample count behind it.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

// finish audits the produced metrics against the spec in both
// directions, prints every metric by name with its unit, and returns the
// contract result.
func (r *run) finish() (result, error) {
	want := r.spec.metricsFor(r.cfg.trace)
	res := result{Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	out := r.cfg.out
	fmt.Fprintf(out, "\n%s seed=%d seconds=%g trace=%v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, m := range want {
		known[m.Name] = true
		v, ok := r.values[m.Name]
		if !ok {
			if !r.cfg.trace {
				return res, fmt.Errorf("end-to-end metric %q was not measured by workload %s", m.Name, r.cfg.workload)
			}
			// A per-layer metric the workload's layers never touch reads
			// zero: the bypassed layer did no work.
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("  %-34s %s %s", m.Name, strconv.FormatFloat(v, 'g', 8, 64), m.Unit)
		if n := r.samples[m.Name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(out, line)
	}
	var stray []string
	for name := range r.values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return res, fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %s", strings.Join(stray, ", "))
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	fmt.Fprintf(out, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// execute runs the configured workload to completion.
func execute(cfg runConfig, sp *spec) (result, error) {
	if !sp.hasWorkload(cfg.workload) {
		return result{}, fmt.Errorf("unknown workload %q (BENCHMARK.json names %d)", cfg.workload, len(sp.Workloads))
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return result{}, err
	}
	r := newRun(cfg, sp)
	var err error
	switch cfg.workload {
	case "paper_cold":
		err = r.paperCold()
	case "engine_mixed":
		err = r.engineMixed()
	case "served_read":
		err = r.servedRead()
	case "routed_mixed":
		err = r.routedMixed()
	default:
		err = fmt.Errorf("workload %q is declared but not implemented", cfg.workload)
	}
	if err != nil {
		return result{}, err
	}
	if r.tr != nil {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		r.set("rss_mb", rss, 0)
		if err := r.tr.write(cfg.traceDir, cfg.workload, cfg.seed, cfg.out); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
	}
	return r.finish()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
