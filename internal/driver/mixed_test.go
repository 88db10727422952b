package driver

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/gen"
	"xbench/internal/workload"
)

func TestMixedOpSequenceDeterministic(t *testing.T) {
	a := MixedOpSequence(42, 0, testMix, nil, 0.3, 300)
	b := MixedOpSequence(42, 0, testMix, nil, 0.3, 300)
	if len(a) != 300 {
		t.Fatalf("sequence length %d", len(a))
	}
	var updates int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs on replay: %s vs %s", i, a[i], b[i])
		}
		if a[i].Update != 0 {
			updates++
		}
	}
	// 0.3 of 300 ops; a run this long drifting outside [45, 135] means
	// the fraction is not being honored.
	if updates < 45 || updates > 135 {
		t.Fatalf("%d/300 update ops for fraction 0.3", updates)
	}
	c := MixedOpSequence(42, 1, testMix, nil, 0.3, 300)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clients 0 and 1 drew identical mixed sequences")
	}
}

// TestMixedOpSequenceZeroFractionMatchesOpSequence pins the read-only
// stream: a zero update fraction draws no update and consumes exactly one
// number of the client's stream per query, the query-only draw.
func TestMixedOpSequenceZeroFractionMatchesOpSequence(t *testing.T) {
	mixed := MixedOpSequence(7, 3, testMix, nil, 0, 100)
	rng := clientRNG(7, 3)
	for i := range mixed {
		if want := testMix[rng.Intn(len(testMix))]; mixed[i].Update != 0 || mixed[i].Query != want {
			t.Fatalf("op %d: mixed %s, query-only draw %s", i, mixed[i], want)
		}
	}
}

func TestRunMixedAccounting(t *testing.T) {
	e := &stubEngine{}
	rep, err := Run(context.Background(), e, core.DCMD, Config{
		Clients: 2, OpsPerClient: 50, Queries: testMix, NoWarmup: true, Think: -1,
		UpdateFraction: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 100 {
		t.Fatalf("Ops = %d, want 100", rep.Ops)
	}
	if rep.Updates == 0 {
		t.Fatal("mixed run issued no updates")
	}
	var queries int64
	for _, c := range rep.Cells {
		queries += c.Count
	}
	var ucells int64
	for _, c := range rep.UpdateCells {
		ucells += c.Count
		if c.Update < workload.U1 || c.Update > workload.U3 {
			t.Fatalf("unexpected update cell op %v", c.Update)
		}
	}
	if queries+ucells != rep.Ops {
		t.Fatalf("cells account for %d+%d ops, report says %d", queries, ucells, rep.Ops)
	}
	if ucells != rep.Updates {
		t.Fatalf("update cells count %d, report says %d", ucells, rep.Updates)
	}
}

func TestRunRejectsMixedOnSingleDocumentClass(t *testing.T) {
	e := &stubEngine{}
	_, err := Run(context.Background(), e, core.TCSD, Config{
		Clients: 1, OpsPerClient: 5, Queries: testMix, NoWarmup: true, Think: -1,
		UpdateFraction: 0.5,
	})
	if err == nil {
		t.Fatal("mixed run on a single-document class succeeded")
	}
}

func TestRunRejectsBadUpdateFraction(t *testing.T) {
	e := &stubEngine{}
	for _, f := range []float64{-0.1, 1, 1.5} {
		_, err := Run(context.Background(), e, core.DCMD, Config{
			Clients: 1, OpsPerClient: 5, Queries: testMix, NoWarmup: true, Think: -1,
			UpdateFraction: f,
		})
		if err == nil {
			t.Fatalf("update fraction %v accepted", f)
		}
	}
}

// TestSweepTwiceOnOneEngine runs two mixed sweeps back to back on one
// loaded DC/MD engine, as two `xbench throughput --update-fraction=0.3`
// runs against one `xbench serve` do: the second passes only if the
// first left the database as it was loaded, documents and names alike.
func TestSweepTwiceOnOneEngine(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{DictEntries: 50, Articles: 8, Items: 30, Orders: 50}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := native.New(0)
	defer e.Close()
	if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
		t.Fatal(err)
	}
	docCount := func() int {
		v, release, err := e.View()
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return v.DocumentCount()
	}
	loaded := docCount()
	for i := 1; i <= 2; i++ {
		reps, err := Sweep(ctx, e, core.DCMD, nil, nil, Config{UpdateFraction: 0.3})
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if reps[0].Updates == 0 || reps[0].Errs != 0 {
			t.Errorf("sweep %d: %d updates, %d errors", i, reps[0].Updates, reps[0].Errs)
		}
		if got := docCount(); got != loaded {
			t.Errorf("after sweep %d: %d documents, loaded %d", i, got, loaded)
		}
	}
}

// TestFractionSweep: the update-fraction sweep runs one driver step per
// fraction against the same warm engine and reports aggregate read
// latency per point.
func TestFractionSweep(t *testing.T) {
	e := &stubEngine{}
	fractions := []float64{0, 0.3, 0.5}
	points, err := Sweep(context.Background(), e, core.DCMD, nil, fractions, Config{
		Clients: 2, OpsPerClient: 40, Queries: testMix, Think: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(fractions) {
		t.Fatalf("%d points, want %d", len(points), len(fractions))
	}
	var table bytes.Buffer
	WriteTable(&table, points)
	for _, want := range []string{"Read latency vs update fraction", "read p99", "30%"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("fraction sweep table missing %q:\n%s", want, table.String())
		}
	}
	for i, rep := range points {
		frac := rep.UpdateFraction
		if rep.Clients != 2 || frac != fractions[i] {
			t.Fatalf("point %d: %d clients at fraction %v, want 2 at %v", i, rep.Clients, frac, fractions[i])
		}
		if rep.Errs != 0 {
			t.Fatalf("fraction %v: %d errors", frac, rep.Errs)
		}
		if rep.ReadCount == 0 || rep.ReadP99 <= 0 {
			t.Fatalf("fraction %v: no aggregate read latency (count %d, p99 %v)",
				frac, rep.ReadCount, rep.ReadP99)
		}
		if rep.ReadCount+rep.Updates != rep.Ops {
			t.Fatalf("fraction %v: reads %d + updates %d != ops %d",
				frac, rep.ReadCount, rep.Updates, rep.Ops)
		}
		if frac == 0 && rep.Updates != 0 {
			t.Fatalf("read-only point issued %d updates", rep.Updates)
		}
		if frac > 0 && rep.Updates == 0 {
			t.Fatalf("fraction %v issued no updates", frac)
		}
	}
}

func TestMixedFormatters(t *testing.T) {
	e := &stubEngine{}
	reports, err := Sweep(context.Background(), e, core.DCMD, []int{1, 2}, nil, Config{
		OpsPerClient: 30, Queries: testMix, Think: -1, UpdateFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	WriteTable(&table, reports)
	for _, want := range []string{"updates", "Per-update-op latency", "U1"} {
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
	sawUpdate := false
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Errorf("csv row has %d cols, header %d: %q", got, wantCols, line)
		}
		if strings.Contains(line, ",U1,") || strings.Contains(line, ",U2,") || strings.Contains(line, ",U3,") {
			sawUpdate = true
		}
	}
	if !sawUpdate {
		t.Fatalf("csv has no update rows:\n%s", csvb.String())
	}
	var jsb bytes.Buffer
	if err := WriteJSON(&jsb, reports); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"updates"`, `"update_cells"`, `"query": "U1"`} {
		if !strings.Contains(jsb.String(), want) {
			t.Fatalf("json missing %s:\n%s", want, jsb.String())
		}
	}
}
