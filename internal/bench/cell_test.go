package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xbench/internal/core"
)

// runLog counts the Executes a grid of countingEngines served, per cell,
// split into cold (first Execute after a ColdReset) and warm.
type runLog struct {
	cold, warm map[string]int
}

// countingEngine is a stub that hosts everything but TC/SD and records
// which cell each Execute belonged to.
type countingEngine struct {
	stubEngine
	log     *runLog
	db      string
	indexed bool
	reset   bool
}

func (c *countingEngine) Supports(class core.Class, _ core.Size) error {
	if class == core.TCSD {
		return fmt.Errorf("counting stub: no TC/SD: %w", core.ErrUnsupported)
	}
	return nil
}

func (c *countingEngine) Load(_ context.Context, db *core.Database) (core.LoadStats, error) {
	c.db = fmt.Sprintf("%s/%s", db.Class.Code(), db.Size)
	return core.LoadStats{}, nil
}

func (c *countingEngine) BuildIndexes([]core.IndexSpec) error { c.indexed = true; return nil }
func (c *countingEngine) ColdReset()                          { c.reset = true }

func (c *countingEngine) Execute(_ context.Context, q core.QueryID, _ core.Params) (core.Result, error) {
	counts := c.log.warm
	if c.reset {
		counts = c.log.cold
	}
	c.reset = false
	counts[cellName(c.name, c.db, c.indexed, q)]++
	return core.Result{}, c.execErr
}

func cellName(engine, db string, indexed bool, q core.QueryID) string {
	return fmt.Sprintf("%s %s indexed=%v %s", engine, db, indexed, q)
}

// TestEveryViewMeasuresThroughOneCell pins the harness's one measuring
// rule under every view that prints query cells: a supported cell is
// Repeat cold Executes (plus Warm warm ones in the report, the only view
// that prints them) on the engine loaded for it, a blank cell is none,
// and a failing cell stops at its first error and surfaces it.
func TestEveryViewMeasuresThroughOneCell(t *testing.T) {
	const repeat = 2
	small := []core.Size{core.Small}
	paperQueries := []core.QueryID{core.Q5, core.Q12, core.Q17, core.Q8, core.Q14}
	views := []struct {
		name      string
		sizes     []core.Size
		queries   []core.QueryID
		warm      int
		unindexed bool
		run       func(r *Runner) error
	}{
		{name: "tables", sizes: small, queries: []core.QueryID{core.Q5},
			run: func(r *Runner) error { return r.Table(5) }},
		{name: "csv tables", sizes: small, queries: []core.QueryID{core.Q8},
			run: func(r *Runner) error { r.Format = "csv"; return r.Table(8) }},
		{name: "report", sizes: small, queries: []core.QueryID{core.Q5, core.Q8}, warm: 1,
			run: func(r *Runner) error { return r.MetricsReport([]core.QueryID{core.Q5, core.Q8}) }},
		{name: "shape", sizes: []core.Size{core.Small, core.Normal}, queries: paperQueries,
			run: func(r *Runner) error { return r.ShapeReport() }},
		{name: "ablation", sizes: small, queries: []core.QueryID{core.Q5}, unindexed: true,
			run: func(r *Runner) error { return r.IndexAblation(core.Q5) }},
		{name: "measure", sizes: small, queries: []core.QueryID{core.Q5},
			run: func(r *Runner) error {
				for _, class := range columnClasses {
					r.Measure("X-Hive", class, core.Small, core.Q5) // errors are the blank and failing cells
				}
				return nil
			}},
	}
	for _, v := range views {
		for _, execErr := range []error{nil, errors.New("synthetic query failure")} {
			name := v.name
			if execErr != nil {
				name += " failing"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				log := &runLog{cold: map[string]int{}, warm: map[string]int{}}
				r := tinyRunner(&out)
				r.Sizes, r.Repeat, r.Warm = v.sizes, repeat, v.warm
				// The shape checks read the paper's value by row label.
				r.EngineList = []string{"X-Hive"}
				r.NewEngineFn = func(name string) core.Engine {
					return &countingEngine{stubEngine: stubEngine{name: name, execErr: execErr}, log: log}
				}
				if err := v.run(r); err != nil {
					t.Fatal(err)
				}
				r.FlushErrors()

				wantCold, wantWarm := repeat, v.warm
				if execErr != nil {
					wantCold, wantWarm = 1, 0
					if !strings.Contains(out.String(), execErr.Error()) {
						t.Errorf("the failing cells' error never surfaced:\n%s", out.String())
					}
				}
				cells := 0
				for _, class := range columnClasses {
					if class == core.TCSD {
						continue // the blank column: no key may mention it
					}
					for _, size := range v.sizes {
						for _, q := range v.queries {
							for _, indexed := range []bool{true, false} {
								if !indexed && !v.unindexed {
									continue
								}
								cells++
								key := cellName("X-Hive", fmt.Sprintf("%s/%s", class.Code(), size), indexed, q)
								if got := log.cold[key]; got != wantCold {
									t.Errorf("%s: %d cold Executes, want %d", key, got, wantCold)
								}
								if got := log.warm[key]; got != wantWarm {
									t.Errorf("%s: %d warm Executes, want %d", key, got, wantWarm)
								}
							}
						}
					}
				}
				if len(log.cold) != cells {
					t.Errorf("cold Executes on %d cells, want %d: %v", len(log.cold), cells, log.cold)
				}
			})
		}
	}
}
