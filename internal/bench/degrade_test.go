package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
)

// stubEngine lets the degrade tests inject failures at each stage of the
// grid: Supports, Load, and Execute. It declines updates.
type stubEngine struct {
	name       string
	supportErr error
	loadErr    error
	execErr    error
}

func (s *stubEngine) Name() string                         { return s.name }
func (s *stubEngine) Supports(core.Class, core.Size) error { return s.supportErr }
func (s *stubEngine) BuildIndexes([]core.IndexSpec) error  { return nil }
func (s *stubEngine) ColdReset()                           {}
func (s *stubEngine) PageIO() int64                        { return 0 }
func (s *stubEngine) Close() error                         { return nil }
func (s *stubEngine) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, s.loadErr
}
func (s *stubEngine) Execute(context.Context, core.QueryID, core.Params) (core.Result, error) {
	return core.Result{}, s.execErr
}
func (s *stubEngine) InsertDocument(context.Context, string, []byte) error {
	return core.ErrReadOnly
}
func (s *stubEngine) ReplaceDocument(context.Context, string, []byte) error {
	return core.ErrReadOnly
}
func (s *stubEngine) DeleteDocument(context.Context, string) error { return core.ErrReadOnly }

// TestGridDegradesGracefully: an engine that declines a class (wrapped
// ErrUnsupported), one whose load fails fatally, and one whose queries
// error must each degrade to a "-" or "err" cell — the rest of the grid
// keeps printing and no table call aborts.
func TestGridDegradesGracefully(t *testing.T) {
	stubs := map[string]*stubEngine{
		"declines": {name: "declines",
			supportErr: fmt.Errorf("stub: no thanks: %w", core.ErrUnsupported)},
		"loadfail": {name: "loadfail", loadErr: errors.New("stub: disk on fire")},
		"execfail": {name: "execfail", execErr: errors.New("stub: query exploded")},
		"healthy":  {name: "healthy"},
	}
	var out bytes.Buffer
	cfg := gen.Config{DictEntries: 20, Articles: 4, Items: 10, Orders: 20}
	r := NewRunner(cfg, []core.Size{core.Small}, &out)
	r.EngineList = []string{"declines", "loadfail", "execfail", "healthy"}
	r.NewEngineFn = func(name string) core.Engine { return stubs[name] }

	if err := r.Table(4); err != nil {
		t.Fatalf("Table4 aborted: %v", err)
	}
	if err := r.Table(5); err != nil {
		t.Fatalf("QueryTable aborted: %v", err)
	}

	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 1 {
			rows[fields[0]] = line
		}
	}
	for _, name := range r.EngineList {
		if _, ok := rows[name]; !ok {
			t.Fatalf("row %q missing from grid output:\n%s", name, out.String())
		}
	}
	for _, name := range []string{"declines", "loadfail"} {
		cells := strings.Fields(rows[name])[1:]
		for i, c := range cells {
			if c != "-" {
				t.Fatalf("%s cell %d = %q, want -", name, i, c)
			}
		}
	}
	// The exec-failing engine loads fine (Table 4 numbers) but every query
	// cell reads "err".
	queryRow := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "execfail") && strings.Contains(line, "err") {
			queryRow = line
		}
	}
	if queryRow == "" {
		t.Fatalf("no err cells for execfail in query table:\n%s", out.String())
	}
	for i, c := range strings.Fields(queryRow)[1:] {
		if c != "err" {
			t.Fatalf("execfail query cell %d = %q, want err", i, c)
		}
	}
	// The healthy engine's query row must hold numbers, proving the grid
	// kept working past the failures.
	healthyQuery := false
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "healthy") {
			for _, c := range strings.Fields(line)[1:] {
				if c != "-" && c != "err" {
					healthyQuery = true
				}
			}
		}
	}
	if !healthyQuery {
		t.Fatalf("healthy engine produced no measured cells:\n%s", out.String())
	}
}

// TestMeasureSurfacesLoadError: the programmatic API must return the load
// error instead of panicking when a cell is degraded.
func TestMeasureSurfacesLoadError(t *testing.T) {
	var out bytes.Buffer
	r := NewRunner(gen.Config{DictEntries: 20, Articles: 4, Items: 10, Orders: 20},
		[]core.Size{core.Small}, &out)
	r.EngineList = []string{"loadfail"}
	r.NewEngineFn = func(string) core.Engine {
		return &stubEngine{name: "loadfail", loadErr: errors.New("stub: no disk")}
	}
	if _, err := r.Measure("loadfail", core.DCSD, core.Small, core.Q5); err == nil {
		t.Fatal("Measure returned nil error for a failed load")
	}
}
