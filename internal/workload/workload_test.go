package workload

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
)

// benchQueries are the five queries the paper's experiments run.
var benchQueries = []core.QueryID{core.Q5, core.Q8, core.Q12, core.Q14, core.Q17}

func tinyDB(t *testing.T, class core.Class) *core.Database {
	t.Helper()
	cfg := gen.Config{DictEntries: 50, Articles: 8, Items: 30, Orders: 50}
	db, err := cfg.Generate(class, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func allEngines() []core.Engine {
	return []core.Engine{
		native.New(0),
		rdbms.New(rdbms.Xcolumn, 0, 0),
		rdbms.New(rdbms.Xcollection, 0, 0),
		rdbms.New(rdbms.SQLServer, 0, 0),
	}
}

func TestCapabilityMatrix(t *testing.T) {
	cases := []struct {
		engine  core.Engine
		class   core.Class
		size    core.Size
		wantErr bool
	}{
		{native.New(0), core.TCSD, core.Large, false},
		{rdbms.New(rdbms.Xcolumn, 0, 0), core.TCSD, core.Small, true},  // SD unsupported
		{rdbms.New(rdbms.Xcolumn, 0, 0), core.DCSD, core.Small, true},  // SD unsupported
		{rdbms.New(rdbms.Xcolumn, 0, 0), core.DCMD, core.Large, false}, // MD fine
		{rdbms.New(rdbms.Xcollection, 0, 0), core.TCSD, core.Small, false},
		{rdbms.New(rdbms.Xcollection, 0, 0), core.TCSD, core.Normal, true}, // row limit
		{rdbms.New(rdbms.Xcollection, 0, 0), core.DCSD, core.Large, true},
		{rdbms.New(rdbms.Xcollection, 0, 0), core.DCMD, core.Large, false},
		{rdbms.New(rdbms.SQLServer, 0, 0), core.TCSD, core.Large, false},
	}
	for _, c := range cases {
		err := c.engine.Supports(c.class, c.size)
		if (err != nil) != c.wantErr {
			t.Errorf("%s Supports(%s, %s) = %v, wantErr=%v",
				c.engine.Name(), c.class, c.size, err, c.wantErr)
		}
		if err != nil && !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("%s: unsupported error not wrapping ErrUnsupported: %v", c.engine.Name(), err)
		}
	}
}

// TestCrossEngineEquivalence is the central correctness check of the
// reproduction: every engine that supports a class must produce the same
// answers as the native engine for the benchmarked queries, up to the
// documented lossiness of its mapping.
func TestCrossEngineEquivalence(t *testing.T) {
	for _, class := range core.Classes {
		class := class
		t.Run(class.Code(), func(t *testing.T) {
			db := tinyDB(t, class)
			nat := native.New(0)
			if _, _, err := LoadAndIndex(context.Background(), nat, db); err != nil {
				t.Fatalf("native load: %v", err)
			}
			// Native answers for every defined query act as the oracle.
			oracle := map[core.QueryID]core.Result{}
			for _, q := range QueryIDs(class) {
				m := RunCold(context.Background(), nat, class, q)
				if m.Err != nil {
					t.Fatalf("native %s: %v", q, m.Err)
				}
				oracle[q] = m.Result
			}
			// The five benchmarked queries must return something for at
			// least Q5/Q8/Q12 (parameterized on guaranteed ids).
			for _, q := range []core.QueryID{core.Q5, core.Q8, core.Q12} {
				if len(oracle[q].Items) == 0 {
					t.Errorf("native %s returned no items", q)
				}
			}

			for _, e := range allEngines()[1:] {
				if e.Supports(class, core.Small) != nil {
					continue
				}
				if _, _, err := LoadAndIndex(context.Background(), e, db); err != nil {
					t.Fatalf("%s load: %v", e.Name(), err)
				}
				for _, q := range benchQueries {
					m := RunCold(context.Background(), e, class, q)
					if errors.Is(m.Err, core.ErrNoQuery) {
						t.Errorf("%s does not implement %s/%s", e.Name(), class, q)
						continue
					}
					if m.Err != nil {
						t.Errorf("%s %s/%s: %v", e.Name(), class, q, m.Err)
						continue
					}
					mode := ModeFor(class, q, e.Name())
					if err := Check(mode, oracle[q], m.Result); err != nil {
						t.Errorf("%s %s/%s mismatch (%v): %v", e.Name(), class, q, mode, err)
					}
				}
			}
		})
	}
}

// TestTCMDQ17WordBoundaryDivergence pins the TC/MD Normal database of
// seed 101, where the column-wise word search of the shredding engines
// matches one article more than the string-value search of the native
// engine (269 against 268): the same word-boundary divergence ModeFor
// classes Lossy for TC/SD. The cell must be classed so that it checks
// (`xbench verify --class=tcmd --size=normal --gen-seed=101` exits 0), and
// Xcolumn, which stores the articles intact, must still agree exactly.
func TestTCMDQ17WordBoundaryDivergence(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 101}.Generate(core.TCMD, core.Normal)
	if err != nil {
		t.Fatal(err)
	}
	engines := allEngines()
	if _, _, err := LoadAndIndex(ctx, engines[0], db); err != nil {
		t.Fatal(err)
	}
	want := RunCold(ctx, engines[0], core.TCMD, core.Q17)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	diverged := false
	for _, e := range engines[1:] {
		if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
			t.Fatalf("%s load: %v", e.Name(), err)
		}
		got := RunCold(ctx, e, core.TCMD, core.Q17)
		if got.Err != nil {
			t.Fatalf("%s: %v", e.Name(), got.Err)
		}
		mode := ModeFor(core.TCMD, core.Q17, e.Name())
		if err := Check(mode, want.Result, got.Result); err != nil {
			t.Errorf("%s TC/MD Q17 (%v): %v", e.Name(), mode, err)
		}
		if e.Name() == "Xcolumn" {
			if mode != Exact {
				t.Errorf("Xcolumn TC/MD Q17 is checked %v, want exact", mode)
			}
			continue
		}
		diverged = diverged || got.Result.Count() != want.Result.Count()
	}
	if !diverged {
		t.Error("no shredding engine diverges from native on seed 101: the pin no longer covers the Lossy class")
	}
}

func TestNativeRunsFullWorkload(t *testing.T) {
	for _, class := range core.Classes {
		db := tinyDB(t, class)
		nat := native.New(0)
		if _, _, err := LoadAndIndex(context.Background(), nat, db); err != nil {
			t.Fatal(err)
		}
		ids := QueryIDs(class)
		if len(ids) < 12 {
			t.Errorf("%s instantiates only %d query types", class, len(ids))
		}
		for _, q := range ids {
			m := RunCold(context.Background(), nat, class, q)
			if m.Err != nil {
				t.Errorf("native %s/%s failed: %v", class, q, m.Err)
			}
		}
	}
}

func TestUndefinedQueryReturnsErrNoQuery(t *testing.T) {
	db := tinyDB(t, core.DCSD)
	nat := native.New(0)
	if _, _, err := LoadAndIndex(context.Background(), nat, db); err != nil {
		t.Fatal(err)
	}
	// Q19 (references and joins) is a DC/MD query, not defined for DC/SD.
	if _, err := nat.Execute(context.Background(), core.Q19, Params(core.DCSD)); !errors.Is(err, core.ErrNoQuery) {
		t.Fatalf("expected ErrNoQuery, got %v", err)
	}
}

// TestExplainAndExecuteAgreeOnCells: on every engine, for every class it
// hosts and every query of the class's catalog, Explain has no plan
// (core.ErrNoQuery) exactly where Execute has no answer. An engine that
// explains a query it cannot run, or runs one it cannot explain, fails.
func TestExplainAndExecuteAgreeOnCells(t *testing.T) {
	ctx := context.Background()
	for _, class := range core.Classes {
		db := tinyDB(t, class)
		for _, e := range allEngines() {
			if e.Supports(class, core.Small) != nil {
				continue
			}
			if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
				t.Fatalf("%s %s: %v", e.Name(), class, err)
			}
			for _, q := range QueryIDs(class) {
				_, xerr := e.Execute(ctx, q, Params(class))
				_, perr := core.Explain(ctx, e, q, Params(class))
				if errors.Is(xerr, core.ErrNoQuery) != errors.Is(perr, core.ErrNoQuery) {
					t.Errorf("%s %s/%s: Execute %v, Explain %v", e.Name(), class, q, xerr, perr)
				}
			}
			e.Close()
		}
	}
}

func TestIndexSpeedsUpNative(t *testing.T) {
	db := tinyDB(t, core.DCMD)
	withIdx := native.New(0)
	if _, _, err := LoadAndIndex(context.Background(), withIdx, db); err != nil {
		t.Fatal(err)
	}
	noIdx := native.New(0)
	if _, err := noIdx.Load(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	a := RunCold(context.Background(), withIdx, core.DCMD, core.Q5)
	b := RunCold(context.Background(), noIdx, core.DCMD, core.Q5)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if err := Check(Exact, a.Result, b.Result); err != nil {
		t.Fatalf("indexed and scan answers differ: %v", err)
	}
	if a.Result.PageIO >= b.Result.PageIO {
		t.Errorf("index did not reduce page I/O: indexed=%d scan=%d",
			a.Result.PageIO, b.Result.PageIO)
	}
}

func TestColdRunCostsIO(t *testing.T) {
	db := tinyDB(t, core.TCMD)
	e := native.New(0)
	if _, _, err := LoadAndIndex(context.Background(), e, db); err != nil {
		t.Fatal(err)
	}
	m := RunCold(context.Background(), e, core.TCMD, core.Q1)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if m.Result.PageIO == 0 {
		t.Fatal("cold run performed no page I/O")
	}
}

func TestParamsCoverQueryNeeds(t *testing.T) {
	for _, class := range core.Classes {
		p := Params(class)
		for _, q := range QueryIDs(class) {
			_ = q
		}
		// Spot-check the critical bindings.
		switch class {
		case core.TCSD:
			if p.Get("W") == "" {
				t.Error("TCSD missing W")
			}
		case core.DCMD:
			if p.Get("X") != "O1" || p.Get("DOC") != "order1.xml" {
				t.Error("DCMD ids wrong")
			}
		}
		if p.Get("LO") >= p.Get("HI") {
			t.Errorf("%s: empty date window", class)
		}
	}
}

func TestShreddedFlagsOrderSensitivity(t *testing.T) {
	db := tinyDB(t, core.DCMD)
	e := rdbms.New(rdbms.Xcollection, 0, 0)
	if _, _, err := LoadAndIndex(context.Background(), e, db); err != nil {
		t.Fatal(err)
	}
	m := RunCold(context.Background(), e, core.DCMD, core.Q5)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if m.Result.OrderGuaranteed {
		t.Fatal("shredded engine claims guaranteed order for Q5")
	}
	// Xcolumn guarantees order via dxx_seqno.
	xc := rdbms.New(rdbms.Xcolumn, 0, 0)
	if _, _, err := LoadAndIndex(context.Background(), xc, db); err != nil {
		t.Fatal(err)
	}
	m = RunCold(context.Background(), xc, core.DCMD, core.Q5)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if !m.Result.OrderGuaranteed {
		t.Fatal("Xcolumn should guarantee order")
	}
}

func TestSQLServerDropsMixedContent(t *testing.T) {
	db := tinyDB(t, core.TCSD)
	ss := rdbms.New(rdbms.SQLServer, 0, 0)
	st, _, err := LoadAndIndex(context.Background(), ss, db)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedMixed == 0 {
		t.Fatal("SQL Server load dropped no mixed content (qt elements should be unmappable)")
	}
	m := RunCold(context.Background(), ss, core.TCSD, core.Q8)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if !m.Result.MixedContentLost {
		t.Fatal("Q8 over qt should flag MixedContentLost")
	}
	for _, item := range m.Result.Items {
		if strings.Contains(item, "<qt>") && item != "<qt/>" {
			t.Fatalf("SQL Server returned mixed content it cannot store: %s", item)
		}
	}
	// Xcollection keeps the flattened text.
	xc := rdbms.New(rdbms.Xcollection, 0, 0)
	if _, _, err := LoadAndIndex(context.Background(), xc, db); err != nil {
		t.Fatal(err)
	}
	m2 := RunCold(context.Background(), xc, core.TCSD, core.Q8)
	if m2.Err != nil {
		t.Fatal(m2.Err)
	}
	flattened := false
	for _, item := range m2.Result.Items {
		if strings.Contains(item, "<qt>") && len(item) > len("<qt></qt>") {
			flattened = true
		}
	}
	if len(m2.Result.Items) > 0 && !flattened {
		t.Fatal("Xcollection lost all qt text; expected flattened text")
	}
}

func TestXcollectionRowLimitTrips(t *testing.T) {
	// A tiny row limit must reject even a Small single-document database
	// during load, mirroring DB2's 1024-row decomposition limit.
	db := tinyDB(t, core.TCSD)
	e := rdbms.New(rdbms.Xcollection, 0, 10)
	_, err := e.Load(context.Background(), db)
	if !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("row limit did not trip: %v", err)
	}
}

func TestLoadStatsShape(t *testing.T) {
	db := tinyDB(t, core.DCMD)
	for _, e := range allEngines() {
		if e.Supports(core.DCMD, core.Small) != nil {
			continue
		}
		st, dur, err := LoadAndIndex(context.Background(), e, db)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if st.Documents != len(db.Docs) {
			t.Errorf("%s: loaded %d documents, want %d", e.Name(), st.Documents, len(db.Docs))
		}
		if st.Bytes != db.Bytes() {
			t.Errorf("%s: consumed %d bytes, want %d", e.Name(), st.Bytes, db.Bytes())
		}
		if st.PageIO == 0 {
			t.Errorf("%s: load performed no page I/O", e.Name())
		}
		if dur <= 0 {
			t.Errorf("%s: non-positive load duration", e.Name())
		}
		if e.Name() == "X-Hive" && st.Nodes == 0 {
			t.Error("native load counted no nodes")
		}
		if e.Name() != "X-Hive" && e.Name() != "Xcolumn" && st.Rows == 0 {
			t.Errorf("%s: shredding produced no rows", e.Name())
		}
	}
}

// TestExtendedEngineQueries checks the queries individual engines implement
// beyond the benchmarked five, against the native oracle.
func TestExtendedEngineQueries(t *testing.T) {
	extras := map[string]map[core.Class][]core.QueryID{
		"Xcollection": {
			core.TCSD: {core.Q1, core.Q2, core.Q11, core.Q18},
			core.DCSD: {core.Q1, core.Q2, core.Q3, core.Q6, core.Q7, core.Q10, core.Q20},
			core.DCMD: {core.Q1, core.Q2, core.Q3, core.Q6, core.Q9, core.Q10, core.Q15, core.Q16, core.Q19},
			core.TCMD: {core.Q1, core.Q2, core.Q3, core.Q13, core.Q15},
		},
		"SQL Server": {
			core.TCSD: {core.Q1, core.Q2, core.Q11, core.Q18},
			core.DCSD: {core.Q1, core.Q2, core.Q3, core.Q6, core.Q7, core.Q10, core.Q20},
			core.DCMD: {core.Q1, core.Q2, core.Q3, core.Q6, core.Q9, core.Q10, core.Q15, core.Q16, core.Q19},
			core.TCMD: {core.Q1, core.Q2, core.Q3, core.Q13, core.Q15},
		},
		"Xcolumn": {
			core.DCMD: {core.Q1, core.Q9, core.Q10, core.Q16, core.Q19},
			core.TCMD: {core.Q1},
		},
	}
	for _, class := range core.Classes {
		db := tinyDB(t, class)
		nat := native.New(0)
		if _, _, err := LoadAndIndex(context.Background(), nat, db); err != nil {
			t.Fatal(err)
		}
		for _, e := range allEngines()[1:] {
			qs := extras[e.Name()][class]
			if len(qs) == 0 || e.Supports(class, core.Small) != nil {
				continue
			}
			if _, _, err := LoadAndIndex(context.Background(), e, db); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			for _, q := range qs {
				want := RunCold(context.Background(), nat, class, q)
				if want.Err != nil {
					t.Fatalf("native %s/%s: %v", class, q, want.Err)
				}
				got := RunCold(context.Background(), e, class, q)
				if got.Err != nil {
					t.Errorf("%s %s/%s: %v", e.Name(), class, q, got.Err)
					continue
				}
				mode := ModeFor(class, q, e.Name())
				if err := Check(mode, want.Result, got.Result); err != nil {
					t.Errorf("%s %s/%s (%v): %v", e.Name(), class, q, mode, err)
				}
			}
		}
	}
}

// TestQ16RoundTripsOriginalDocument pins that Q16 (retrieval of individual
// documents) returns the loaded document content for every engine that
// implements it — content preservation is the point of the query.
func TestQ16RoundTripsOriginalDocument(t *testing.T) {
	db := tinyDB(t, core.DCMD)
	var original string
	for _, d := range db.Docs {
		if d.Name == "order1.xml" {
			// Strip the XML declaration line; engines return the element.
			s := string(d.Data)
			if i := strings.Index(s, "?>"); i >= 0 {
				s = strings.TrimSpace(s[i+2:])
			}
			original = s
		}
	}
	for _, e := range allEngines() {
		if e.Supports(core.DCMD, core.Small) != nil {
			continue
		}
		if _, _, err := LoadAndIndex(context.Background(), e, db); err != nil {
			t.Fatal(err)
		}
		m := RunCold(context.Background(), e, core.DCMD, core.Q16)
		if errors.Is(m.Err, core.ErrNoQuery) {
			continue
		}
		if m.Err != nil {
			t.Fatalf("%s Q16: %v", e.Name(), m.Err)
		}
		if len(m.Result.Items) != 1 || m.Result.Items[0] != original {
			t.Errorf("%s Q16 did not preserve the document:\n got: %.120s\nwant: %.120s",
				e.Name(), m.Result.Items[0], original)
		}
	}
}
