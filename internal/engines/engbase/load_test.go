package engbase_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
)

// cancelAt is a context that cancels itself the n-th time its Err is
// asked: a cancellation that lands at a fixed point of a load — Base's
// loaders ask once per document — rather than at whatever point a timer
// fires.
type cancelAt struct {
	context.Context
	cancel context.CancelFunc
	n      atomic.Int64
}

func newCancelAt(n int64) *cancelAt {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAt{Context: ctx, cancel: cancel}
	c.n.Store(n)
	return c
}

func (c *cancelAt) Err() error {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestLoadContractWithParseAhead is the load contract on a database large
// enough that documents are parsed in batches ahead of the writer (DC/MD
// Normal at generator seed 7, 3,205 documents in about thirty batches),
// on every engine:
//   - A malformed document 2,000 — past the first batch — fails the load
//     with the sequential loader's error, naming the engine and the
//     document; the engine then answers the not-loaded error, and a load
//     of the good database costs the same page I/O as on a fresh engine,
//     which is what it cost when each document was parsed just before it
//     was written.
//   - A context cancelled mid-load fails it with context.Canceled.
//   - No parse worker outlives a Load, whichever way it ends.
//   - A load is one commit, whichever way it ends: it advances the
//     commit epoch by exactly one.
//   - A load versions no page, even in an 8-page pool where it writes
//     pages again after evicting them: no reader can pin before its
//     commit, so there is no pre-image to keep.
func TestLoadContractWithParseAhead(t *testing.T) {
	ctx := context.Background()
	good, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Normal)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Docs = append([]core.Doc(nil), good.Docs...)
	bad.Docs[2000].Data = []byte("<order id=\"O2001\"><total>1</order>")
	// What the sequential loader answered: the error's engine prefix, and
	// the good load's page I/O.
	pins := map[string]struct {
		prefix string
		io     int64
	}{
		"X-Hive":      {"native", 3490},
		"Xcolumn":     {"Xcolumn", 3740},
		"Xcollection": {"Xcollection", 7069},
		"SQL Server":  {"SQL Server", 7069},
	}
	for _, tc := range engines {
		pin := pins[tc.name]
		t.Run(tc.name, func(t *testing.T) {
			noWorkers := func(after string) {
				t.Helper()
				if n := parseWorkers(); n > 0 {
					t.Errorf("%d parse workers still running after %s", n, after)
				}
			}
			e := tc.mk()
			defer e.Close()

			want := pin.prefix + ": order2001.xml: xmldom: syntax error at offset 33: mismatched end tag </order> for <total>"
			if _, err := loadOnce(t, e, ctx, &bad); err == nil || err.Error() != want {
				t.Errorf("load of the malformed database: %v, want %q", err, want)
			}
			noWorkers("the failed load")
			if _, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"}); err == nil || !strings.Contains(err.Error(), "before Load") {
				t.Errorf("Execute after the failed load: %v, want the not-loaded error", err)
			}
			st, err := loadOnce(t, e, ctx, good)
			if err != nil {
				t.Fatal(err)
			}
			if st.Documents != len(good.Docs) || st.PageIO != pin.io {
				t.Errorf("reload: %d documents in %d page I/Os, want %d in %d", st.Documents, st.PageIO, len(good.Docs), pin.io)
			}
			noWorkers("the good load")

			if _, err := loadOnce(t, e, newCancelAt(1000), good); !errors.Is(err, context.Canceled) {
				t.Errorf("load cancelled at its 1000th document: %v, want context.Canceled", err)
			}
			noWorkers("the cancelled load")
			if _, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"}); err == nil || !strings.Contains(err.Error(), "before Load") {
				t.Errorf("Execute after the cancelled load: %v, want the not-loaded error", err)
			}
		})
	}

	small := []struct {
		name string
		mk   func() engine
	}{
		{"X-Hive", func() engine { return native.New(8) }},
		{"SQL Server", func() engine { return rdbms.New(rdbms.SQLServer, 8, 0) }},
		{"Xcolumn", func() engine { return rdbms.New(rdbms.Xcolumn, 8, 0) }},
	}
	t.Run("8-page pool", func(t *testing.T) {
		for _, tc := range small {
			t.Run(tc.name, func(t *testing.T) {
				e := tc.mk()
				defer e.Close()
				captures := e.Pager().Metrics().Counter("pager.snap.capture")
				before := captures.Value()
				if _, err := loadOnce(t, e, ctx, good); err != nil {
					t.Fatal(err)
				}
				if n := captures.Value() - before; n != 0 {
					t.Errorf("the load captured %d page versions, want none", n)
				}
				if n := e.Pager().LiveVersions(); n != 0 {
					t.Errorf("%d page versions outlive the load", n)
				}
			})
		}
	})
}

// loadOnce is e.Load, held to one commit: whichever way the load ends, it
// advances the commit epoch by exactly one.
func loadOnce(t *testing.T, e engine, ctx context.Context, db *core.Database) (core.LoadStats, error) {
	t.Helper()
	before := e.Pager().SnapshotEpoch()
	st, err := e.Load(ctx, db)
	if after := e.Pager().SnapshotEpoch(); after != before+1 {
		t.Errorf("a load ending in %v moved the commit epoch from %d to %d, want one commit", err, before, after)
	}
	return st, err
}

// parseWorkers is the number of goroutines running ParseDocs's parse
// worker, polled for up to a second: a worker that has signalled its
// WaitGroup may still be on its way out when Load returns, and the count
// of all goroutines moves with whatever else the test binary runs.
func parseWorkers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		n = 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "engbase.ParseDocs.func") {
				n++
			}
		}
		if n == 0 || time.Now().After(deadline) {
			return n
		}
	}
}
