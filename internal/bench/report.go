package bench

import (
	"fmt"

	"xbench/internal/core"
)

// ShapeReport mechanically compares this reproduction's measurements with
// the paper's published numbers, checking the two properties that transfer
// across hardware generations:
//
//  1. the winner of each (table, class, size) column — which architecture
//     is fastest — and
//  2. the growth factor of each engine across the 10x size steps.
//
// It prints one line per check with agree/disagree, plus a summary. This
// is the machine-checkable core of EXPERIMENTS.md.
func (r *Runner) ShapeReport() error {
	if _, err := r.format("shape", "table"); err != nil {
		return err
	}
	if len(r.Sizes) < 2 {
		return fmt.Errorf("bench: shape report needs at least two sizes")
	}
	agree, disagree := 0, 0
	note := func(ok bool, format string, args ...any) {
		mark := "agree   "
		if !ok {
			mark = "DIVERGES"
			disagree++
		} else {
			agree++
		}
		fmt.Fprintf(r.Out, "  %s %s\n", mark, fmt.Sprintf(format, args...))
	}

	lo, hi := r.Sizes[0], r.Sizes[len(r.Sizes)-1]
	for table := 4; table <= 9; table++ {
		cells, err := r.tableCells(table)
		if err != nil {
			return err
		}
		at := lookup(cells)
		// measured is a cell's effective milliseconds; have is false for a
		// blank or failed cell.
		measured := func(engine string, class core.Class, size core.Size) (ms float64, have bool) {
			c := at(engine, class, size)
			if c == nil || c.Err != "" {
				return 0, false
			}
			return c.ColdMeanMs, true
		}
		fmt.Fprintf(r.Out, "\nTable %d shape checks:\n", table)
		// Winner per (class, size) column. The paper prints times at 5-10 ms
		// granularity, so engines within 30% of the column minimum count as
		// co-winners; the check passes when the co-winner sets intersect.
		for _, class := range columnClasses {
			for _, size := range r.Sizes {
				paperVals := map[string]float64{}
				measuredVals := map[string]float64{}
				for _, engine := range r.engineNames() {
					pv, ok := PaperValue(PaperCell{table, engine, class, size})
					if !ok || pv == Blank {
						continue
					}
					mv, have := measured(engine, class, size)
					if !have {
						continue
					}
					paperVals[engine] = pv
					measuredVals[engine] = mv
				}
				if len(paperVals) == 0 {
					continue
				}
				paperWin := coWinners(paperVals)
				measuredWin := coWinners(measuredVals)
				ok := false
				for e := range paperWin {
					if measuredWin[e] {
						ok = true
					}
				}
				note(ok, "%s %s fastest: paper=%s measured=%s",
					class, size, setString(paperWin), setString(measuredWin))
			}
		}
		// Growth direction per engine/class across the size span: does the
		// engine scale roughly linearly (factor near the 10x data growth)
		// or super-linearly (well beyond it)? Agreement means both the
		// paper and the measurement fall in the same regime.
		span := float64(hi.Factor() / lo.Factor())
		for _, engine := range r.engineNames() {
			for _, class := range columnClasses {
				pLo, ok1 := PaperValue(PaperCell{table, engine, class, lo})
				pHi, ok2 := PaperValue(PaperCell{table, engine, class, hi})
				if !ok1 || !ok2 || pLo <= 0 || pHi <= 0 {
					continue
				}
				mLo, have1 := measured(engine, class, lo)
				mHi, have2 := measured(engine, class, hi)
				if !have1 || !have2 || mLo <= 0 {
					continue
				}
				paperSuper := pHi/pLo > 2*span
				measuredSuper := mHi/mLo > 2*span
				note(paperSuper == measuredSuper,
					"%s %s growth x%.0f (paper x%.0f) over %.0fx data",
					engine, class, mHi/mLo, pHi/pLo, span)
			}
		}
	}
	fmt.Fprintf(r.Out, "\nshape checks: %d agree, %d diverge (see EXPERIMENTS.md for the analysis of divergences)\n",
		agree, disagree)
	r.FlushErrors()
	return nil
}

// coWinners returns the engines within 30% of the column minimum.
func coWinners(vals map[string]float64) map[string]bool {
	min := 0.0
	first := true
	for _, v := range vals {
		if first || v < min {
			min, first = v, false
		}
	}
	out := map[string]bool{}
	for e, v := range vals {
		if v <= min*1.3 {
			out[e] = true
		}
	}
	return out
}

// setString renders a winner set deterministically (paper row order).
func setString(set map[string]bool) string {
	s := ""
	for _, e := range EngineNames {
		if set[e] {
			if s != "" {
				s += "+"
			}
			s += e
		}
	}
	return s
}
