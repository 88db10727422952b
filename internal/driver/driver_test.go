package driver

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/updatelog"
)

// stubEngine answers every query instantly and records the sequence of
// query ids it saw (meaningful only with one client). Documents live in
// an in-memory map so mixed-mode runs (updates + verification queries)
// behave like a real store.
type stubEngine struct {
	mu        sync.Mutex
	seen      []core.QueryID
	execErr   error
	noQuery   map[core.QueryID]bool
	updateErr error
	docs      map[string][]byte
	updates   int
}

func (s *stubEngine) Name() string                         { return "stub" }
func (s *stubEngine) Supports(core.Class, core.Size) error { return nil }
func (s *stubEngine) BuildIndexes([]core.IndexSpec) error  { return nil }
func (s *stubEngine) ColdReset()                           {}
func (s *stubEngine) PageIO() int64                        { return 0 }
func (s *stubEngine) Close() error                         { return nil }
func (s *stubEngine) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}

func (s *stubEngine) mutate(name string, data []byte, insert bool) error {
	if s.updateErr != nil {
		return s.updateErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.docs == nil {
		s.docs = map[string][]byte{}
	}
	if insert {
		if _, ok := s.docs[name]; ok {
			return errors.New("duplicate insert")
		}
	}
	s.updates++
	if data == nil {
		delete(s.docs, name)
		return nil
	}
	s.docs[name] = data
	return nil
}

func (s *stubEngine) Apply(_ context.Context, rec updatelog.Record, _ func() error) error {
	if rec.Kind == updatelog.KindDelete {
		return s.mutate(rec.Name, nil, false)
	}
	return s.mutate(rec.Name, rec.Data, rec.Kind == updatelog.KindInsert)
}

func (s *stubEngine) InsertDocument(ctx context.Context, name string, data []byte) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}, nil)
}

func (s *stubEngine) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindReplace, Name: name, Data: data}, nil)
}

func (s *stubEngine) DeleteDocument(ctx context.Context, name string) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindDelete, Name: name}, nil)
}

func (s *stubEngine) Execute(_ context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	if s.noQuery[q] {
		return core.Result{}, core.ErrNoQuery
	}
	if s.execErr != nil {
		return core.Result{}, s.execErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Update-workload verification: Q1 for an update target id ("OU<n>"
	// / "aU<n>") answers from the document map, so U3's "gone after
	// delete" check works against the stub.
	if x := p["X"]; q == core.Q1 && len(x) > 2 && (x[:2] == "OU" || x[:2] == "aU") {
		for _, name := range []string{"order-update-" + x[2:] + ".xml", "article-update-" + x[2:] + ".xml"} {
			if doc, ok := s.docs[name]; ok {
				return core.Result{Items: []string{string(doc)}}, nil
			}
		}
		return core.Result{}, nil
	}
	s.seen = append(s.seen, q)
	return core.Result{Items: []string{"x"}}, nil
}

var testMix = []core.QueryID{core.Q1, core.Q5, core.Q8, core.Q14}

// TestOpSequenceDeterministic pins the driver's determinism contract on
// a read-only stream (MixedOpSequence at fraction 0): same (seed, client,
// mix) replays the same sequence; distinct clients draw distinct streams.
func TestOpSequenceDeterministic(t *testing.T) {
	a := MixedOpSequence(42, 0, testMix, nil, 0, 200)
	b := MixedOpSequence(42, 0, testMix, nil, 0, 200)
	if len(a) != 200 {
		t.Fatalf("sequence length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs on replay: %s vs %s", i, a[i], b[i])
		}
	}
	c := MixedOpSequence(42, 1, testMix, nil, 0, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clients 0 and 1 drew identical sequences")
	}
	d := MixedOpSequence(43, 0, testMix, nil, 0, 200)
	same = true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical sequences")
	}
}

// TestSeedZeroSelectsDefaultSeed pins the Seed-0 contract: zero is an
// explicit sentinel for DefaultSeed everywhere — WithDefaults resolves
// it, and the sequence replayer substitutes it the same way, so
// MixedOpSequence(0, ...) describes exactly what a Seed-0 run executed
// (previously Run coerced 0 to 1 but the replayer did not, and the two
// disagreed).
func TestSeedZeroSelectsDefaultSeed(t *testing.T) {
	if got := (Config{}).WithDefaults().Seed; got != DefaultSeed {
		t.Fatalf("WithDefaults resolved Seed 0 to %d, want DefaultSeed %d", got, DefaultSeed)
	}
	if got := (Config{Seed: 42}).WithDefaults().Seed; got != 42 {
		t.Fatalf("WithDefaults rewrote explicit seed 42 to %d", got)
	}
	zero := MixedOpSequence(0, 0, testMix, nil, 0, 100)
	def := MixedOpSequence(DefaultSeed, 0, testMix, nil, 0, 100)
	for i := range zero {
		if zero[i] != def[i] {
			t.Fatalf("op %d: seed 0 %s != DefaultSeed %s", i, zero[i], def[i])
		}
	}
	mzero := MixedOpSequence(0, 0, testMix, nil, 0.5, 100)
	mdef := MixedOpSequence(DefaultSeed, 0, testMix, nil, 0.5, 100)
	for i := range mzero {
		if mzero[i] != mdef[i] {
			t.Fatalf("mixed op %d: seed 0 %s != DefaultSeed %s", i, mzero[i], mdef[i])
		}
	}
}

// TestRunFollowsOpSequence: with one client the engine must see exactly
// the query sequence MixedOpSequence predicts at fraction 0.
func TestRunFollowsOpSequence(t *testing.T) {
	e := &stubEngine{}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients:      1,
		OpsPerClient: 40,
		Seed:         7,
		Queries:      testMix,
		NoWarmup:     true,
		Think:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := MixedOpSequence(7, 0, testMix, nil, 0, 40)
	if len(e.seen) != len(want) {
		t.Fatalf("engine saw %d ops, want %d", len(e.seen), len(want))
	}
	for i := range want {
		if want[i].Update != 0 || e.seen[i] != want[i].Query {
			t.Fatalf("op %d: engine saw %s, MixedOpSequence predicts %s", i, e.seen[i], want[i])
		}
	}
	if rep.Ops != 40 || rep.Errs != 0 {
		t.Fatalf("report ops=%d errs=%d", rep.Ops, rep.Errs)
	}
}

func TestRunMultiClientAccounting(t *testing.T) {
	e := &stubEngine{}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients:      4,
		OpsPerClient: 10,
		Queries:      testMix,
		NoWarmup:     true,
		Think:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 40 {
		t.Fatalf("Ops = %d, want 40", rep.Ops)
	}
	if len(rep.ClientOps) != 4 {
		t.Fatalf("ClientOps = %v", rep.ClientOps)
	}
	for c, n := range rep.ClientOps {
		if n != 10 {
			t.Errorf("client %d ran %d ops, want 10", c, n)
		}
	}
	var cells int64
	for _, c := range rep.Cells {
		cells += c.Count
		if c.Count > 0 && c.P50 <= 0 {
			t.Errorf("%s: count %d but p50 = %v", c.Query, c.Count, c.P50)
		}
	}
	if cells != 40 {
		t.Fatalf("cell counts sum to %d, want 40", cells)
	}
	if rep.Throughput <= 0 {
		t.Fatal("no throughput reported")
	}
}

func TestRunSurfacesQueryErrors(t *testing.T) {
	e := &stubEngine{execErr: errors.New("synthetic failure")}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients: 2, OpsPerClient: 3, Queries: testMix, NoWarmup: true, Think: -1,
	})
	if err == nil {
		t.Fatal("Run swallowed query failures")
	}
	if rep.Errs != 6 {
		t.Fatalf("Errs = %d, want 6", rep.Errs)
	}
}

// TestRunCountsCancellationsSeparately: ops that die with a context
// error land in Canceled, not Errs, do not fail the run, and surface as
// their own column in every output format.
func TestRunCountsCancellationsSeparately(t *testing.T) {
	e := &stubEngine{execErr: context.DeadlineExceeded}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients: 2, OpsPerClient: 3, Queries: testMix, NoWarmup: true, Think: -1,
	})
	if err != nil {
		t.Fatalf("run with only timed-out ops reported error: %v", err)
	}
	if rep.Canceled != 6 || rep.Errs != 0 {
		t.Fatalf("Canceled = %d, Errs = %d, want 6, 0", rep.Canceled, rep.Errs)
	}

	var table bytes.Buffer
	WriteTable(&table, []Report{rep})
	if !strings.Contains(table.String(), "canceled") {
		t.Errorf("table missing canceled column:\n%s", table.String())
	}
	var csvb bytes.Buffer
	if err := WriteCSV(&csvb, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csvb.String(), "\n", 2)[0]
	if !strings.Contains(header, ",canceled,") {
		t.Errorf("csv header missing canceled column: %q", header)
	}
	var jsb bytes.Buffer
	if err := WriteJSON(&jsb, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsb.String(), `"canceled": 6`) {
		t.Errorf("json missing canceled count:\n%s", jsb.String())
	}
}

// TestWarmupFiltersUndefinedQueries: queries an engine declines with
// ErrNoQuery are dropped from the mix, not counted as failures.
func TestWarmupFiltersUndefinedQueries(t *testing.T) {
	e := &stubEngine{noQuery: map[core.QueryID]bool{core.Q5: true}}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients: 1, OpsPerClient: 5, Queries: testMix, Think: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range rep.Mix {
		if q == core.Q5 {
			t.Fatal("declined query stayed in the mix")
		}
	}
	if len(rep.Mix) != len(testMix)-1 {
		t.Fatalf("mix = %v", rep.Mix)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &stubEngine{}
	rep, err := Run(ctx, e, core.DCMD, Config{
		Clients: 2, OpsPerClient: 1000, Queries: testMix, NoWarmup: true, Think: -1,
	})
	if err != nil {
		t.Fatalf("canceled run reported error: %v", err)
	}
	if rep.Ops != 0 {
		t.Fatalf("canceled run executed %d ops", rep.Ops)
	}
}

func TestRunDurationMode(t *testing.T) {
	e := &stubEngine{}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients: 2, Duration: 30 * time.Millisecond, Queries: testMix,
		NoWarmup: true, Think: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("duration-bounded run executed nothing")
	}
}

func TestSweepReusesWarmEngine(t *testing.T) {
	e := &stubEngine{}
	reports, err := Sweep(context.Background(), e, core.DCMD, []int{1, 2}, nil, Config{
		OpsPerClient: 5, Queries: testMix, Think: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Clients != 1 || reports[1].Clients != 2 {
		t.Fatalf("reports = %+v", reports)
	}
}

// TestSweepCarriesFilteredMix: warmup only runs on the first step, so the
// mix it filtered (dropping queries the engine declines) must carry into
// the later, warmup-free steps — otherwise they hit ErrNoQuery at runtime.
func TestSweepCarriesFilteredMix(t *testing.T) {
	e := &stubEngine{noQuery: map[core.QueryID]bool{core.Q5: true}}
	reports, err := Sweep(context.Background(), e, core.DCMD, []int{1, 2, 4}, nil, Config{
		OpsPerClient: 20, Queries: testMix, Think: -1,
	})
	if err != nil {
		t.Fatalf("sweep with a declined query in the candidates: %v", err)
	}
	for _, rep := range reports {
		if rep.Errs != 0 {
			t.Fatalf("%d clients: %d runtime errors", rep.Clients, rep.Errs)
		}
		for _, q := range rep.Mix {
			if q == core.Q5 {
				t.Fatalf("%d clients: declined query back in the mix", rep.Clients)
			}
		}
	}
}

func TestFormatters(t *testing.T) {
	e := &stubEngine{}
	reports, err := Sweep(context.Background(), e, core.DCMD, []int{1, 2}, nil, Config{
		OpsPerClient: 5, Queries: testMix, Think: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	WriteTable(&table, reports)
	for _, want := range []string{"clients", "qps", "p50", "p95", "p99", "Q1"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}
	var csvb bytes.Buffer
	if err := WriteCSV(&csvb, reports); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvb.String()), "\n")
	wantCols := len(strings.Split(lines[0], ","))
	if wantCols < 5 || len(lines) < 3 {
		t.Fatalf("csv too small:\n%s", csvb.String())
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Errorf("csv row has %d cols, header %d: %q", got, wantCols, line)
		}
	}
	var jsb bytes.Buffer
	if err := WriteJSON(&jsb, reports); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"qps"`, `"class": "DC/MD"`, `"query": "Q1"`, `"p99_ms"`} {
		if !strings.Contains(jsb.String(), want) {
			t.Fatalf("json missing %s:\n%s", want, jsb.String())
		}
	}
}
