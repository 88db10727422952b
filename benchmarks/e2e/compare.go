package main

import (
	"fmt"
	"io"
)

// valuesOf collects, from a set of results files, every untraced value
// of each (workload, end-to-end metric) pair.
func valuesOf(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		f, err := readResults(p)
		if err != nil {
			return nil, err
		}
		for _, run := range f.Runs {
			if run.Trace {
				continue
			}
			if out[run.Workload] == nil {
				out[run.Workload] = map[string][]float64{}
			}
			for name, mv := range run.Result.Metrics {
				out[run.Workload][name] = append(out[run.Workload][name], mv.Value)
			}
		}
	}
	return out, nil
}

// verdict applies one metric's bound to two sides' runs. The candidate is
// "worse" when its median is worse than the base's by more than the
// bound. When either side's own run-to-run spread is wider than the
// bound the comparison cannot resolve a difference of that size: the
// pair is "unresolved", unless every candidate run reads better than
// every base run.
func verdict(m specMetric, base, cand []float64) (string, float64) {
	by := worseBy(median(base), median(cand), m.higherIsBetter())
	if spread(base) > m.Bound || spread(cand) > m.Bound {
		allBetter := len(base) > 0 && len(cand) > 0
		for _, c := range cand {
			for _, b := range base {
				if worseBy(b, c, m.higherIsBetter()) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", by
		}
	}
	if by > m.Bound {
		return "worse", by
	}
	return "ok", by
}

// compareSets prints one row per (workload, end-to-end metric) and
// returns how many rows are worse. A pair either side lacks is worse:
// a metric that vanished is not a metric that held.
func compareSets(w io.Writer, sp *spec, basePaths, candPaths []string) (worse int, err error) {
	base, err := valuesOf(basePaths)
	if err != nil {
		return 0, err
	}
	cand, err := valuesOf(candPaths)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "cand median", "worse by", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, c := base[wl.Name][m.Name], cand[wl.Name][m.Name]
			v, by := "worse (missing)", 0.0
			if len(b) > 0 && len(c) > 0 {
				v, by = verdict(m, b, c)
			}
			if v != "ok" && v != "unresolved" {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, median(b), median(c), 100*by, 100*m.Bound, v)
		}
	}
	return worse, nil
}

// printBounds applies the bound rule to a set of seed runs: per metric,
// the largest value the rule gives on any workload, beside the spread
// that produced it.
func printBounds(w io.Writer, sp *spec, paths []string) error {
	vals, err := valuesOf(paths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-14s %5s %14s %9s %7s\n", "metric", "workload", "runs", "median", "range", "bound")
	for _, m := range sp.EndToEnd {
		top := 0.0
		for _, wl := range sp.Workloads {
			xs := vals[wl.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			s := sorted(xs)
			b := boundFor(xs)
			top = max(top, b)
			fmt.Fprintf(w, "%-14s %-14s %5d %14.6g %8.1f%% %6.1f%%\n",
				m.Name, wl.Name, len(xs), median(xs), 100*(s[len(s)-1]-s[0])/median(xs), 100*b)
		}
		fmt.Fprintf(w, "%-14s %-14s %35s %6.1f%%  (declared %.0f%%)\n", m.Name, "=> bound", "", 100*top, 100*m.Bound)
	}
	return nil
}
