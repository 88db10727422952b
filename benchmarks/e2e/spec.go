package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// specMetric is one metric declaration of BENCHMARK.json. Bound is set
// only on end-to-end metrics.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (m specMetric) higherIsBetter() bool { return m.Better == "higher" }

// spec is BENCHMARK.json: the one place metric names, units, directions
// and regression bounds are declared. The program reads it at start and
// refuses to emit a metric it does not name, or to finish a run without
// one it does, so the file and the program cannot drift apart.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRe.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", path, m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricsFor returns the declarations a run must emit: the end-to-end
// list untraced, the per-layer list traced.
func (s *spec) metricsFor(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// The engines, native first: its warm-up answers are the reference the
// other three are checked against.
var engineKeys = []string{"native", "xcolumn", "xcollection", "sqlserver"}

// refSeconds is the --seconds value the frozen op counts below are
// sized for (BENCHMARK.json's run_seconds). Another --seconds scales
// every count linearly: the work is fixed by the arguments, never by a
// clock, so the same arguments always issue the same ops.
const refSeconds = 20

// legPlan freezes one engine's share of one workload, sized on the
// 2-core sandbox so each leg measures for about refSeconds/4.
type legPlan struct {
	// ops is the closed-loop op count across all clients (paper_cold:
	// the number of cold passes over the class's queries).
	ops int
	// openRate is served_read's open-loop request rate in ops/s across
	// all clients, frozen at about half the seed's closed-loop qps;
	// openOps requests are issued at it.
	openRate float64
	openOps  int
}

var legPlans = map[string]map[string]legPlan{
	"paper_cold": {
		"native":      {ops: 8},
		"xcolumn":     {ops: 8},
		"xcollection": {ops: 8},
		"sqlserver":   {ops: 8},
	},
	"engine_mixed": {
		"native":      {ops: 2200},
		"xcolumn":     {ops: 2600},
		"xcollection": {ops: 300},
		"sqlserver":   {ops: 300},
	},
	"served_read": {
		"native":      {ops: 3600, openRate: 600, openOps: 1200},
		"xcolumn":     {ops: 60000, openRate: 10000, openOps: 20000},
		"xcollection": {ops: 60000, openRate: 10000, openOps: 20000},
		"sqlserver":   {ops: 60000, openRate: 10000, openOps: 20000},
	},
	"routed_mixed": {
		"native":      {ops: 1020},
		"xcolumn":     {ops: 10800},
		"xcollection": {ops: 3600},
		"sqlserver":   {ops: 3600},
	},
}

// scaled applies the --seconds scale to a frozen count, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}
