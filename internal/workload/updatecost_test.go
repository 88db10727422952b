package workload

import (
	"context"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// These tests hold the update path to counts, not clocks: what an update
// writes and how much the store grows must follow the document, not the
// corpus and not the number of updates that came before.

// updatable is what the count tests need from an engine beyond
// core.Engine; all four engines have it.
type updatable interface {
	core.Engine
	Pager() *pager.Pager
	Metrics() *metrics.Registry
}

func loadedEngines(t *testing.T, db *core.Database) []updatable {
	t.Helper()
	var out []updatable
	for _, e := range allEngines() {
		if _, _, err := LoadAndIndex(context.Background(), e, db); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, e.(updatable))
	}
	return out
}

// filePages is every pager file's page count, keyed by file id.
func filePages(p *pager.Pager) map[pager.FileID]uint32 {
	out := map[pager.FileID]uint32{}
	// Ids are handed out densely from zero, and files are removed only all
	// at once (a load's Pager.DropFiles), after which ids restart at zero.
	for fid := pager.FileID(0); int(fid) < p.OpenFiles(); fid++ {
		out[fid] = p.NumPages(fid)
	}
	return out
}

// TestReloadKeepsFilesAndPages loads every engine with the Table 3
// indexes and reloads it three times. A load starts on an empty disk, so
// each reload must leave exactly the files and pages the first load left:
// a reset that emptied the store file by file kept every B+tree file it
// had built.
func TestReloadKeepsFilesAndPages(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 5}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	pages := func(p *pager.Pager) (n uint32) {
		for _, c := range filePages(p) {
			n += c
		}
		return n
	}
	for _, e := range loadedEngines(t, db) {
		p := e.Pager()
		files, total := p.OpenFiles(), pages(p)
		for reload := 1; reload <= 3; reload++ {
			if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
				t.Fatalf("%s reload %d: %v", e.Name(), reload, err)
			}
			if gotFiles, gotPages := p.OpenFiles(), pages(p); gotFiles != files || gotPages != total {
				t.Errorf("%s: reload %d left %d files of %d pages, the first load %d files of %d",
					e.Name(), reload, gotFiles, gotPages, files, total)
			}
		}
		e.Close()
	}
}

// TestReplaceChurnStaysBounded runs 500 replace cycles of same-size
// documents on every engine. No file may appear (the old delete path
// abandoned every index file it rebuilt) and no heap or index may end
// more than 10 % above where it started, to the page: a replace
// tombstones the old records and the new ones, being the same size, move
// into their extents. Only the update journal grows, by design: it is
// the redo log of every update.
//
// The starting point is taken after each document has been replaced
// once, because xcolumn builds its side tables' doc indexes on the first
// delete it sees.
func TestReplaceChurnStaysBounded(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 5}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	const docs = 4
	// Revisions 10..89 keep the order total at two digits, so every
	// revision of a document shreds and serializes to the same sizes.
	replace := func(e core.Engine, cycle int) {
		t.Helper()
		seq := cycle % docs
		name, data := UpdateDoc(core.DCMD, seq, 10+cycle%80)
		if err := e.ReplaceDocument(ctx, name, data); err != nil {
			t.Fatalf("%s cycle %d: %v", e.Name(), cycle, err)
		}
	}
	for _, e := range loadedEngines(t, db) {
		p := e.Pager()
		for c := 0; c < 2*docs; c++ { // insert each, then replace each once
			replace(e, c)
		}
		files, before := p.OpenFiles(), filePages(p)
		reused := e.Metrics().Counter("pager.heap.reuse").Value()
		for c := 2 * docs; c < 2*docs+500; c++ {
			replace(e, c)
		}
		if got := p.OpenFiles(); got != files {
			t.Errorf("%s: %d pager files after 500 replaces, %d before", e.Name(), got, files)
		}
		for fid, pages := range filePages(p) {
			if p.FileName(fid) == "updates" {
				continue
			}
			if limit := (before[fid]*11 + 9) / 10; pages > limit {
				t.Errorf("%s: file %q grew from %d to %d pages over 500 same-size replaces",
					e.Name(), p.FileName(fid), before[fid], pages)
			}
		}
		if got := e.Metrics().Counter("pager.heap.reuse").Value() - reused; got < 500 {
			t.Errorf("%s: %d heap inserts reused a dead extent over 500 replaces, want at least one each", e.Name(), got)
		}
		// The replaced documents are the ones the store answers with.
		res, err := e.Execute(ctx, core.Q1, core.Params{"X": UpdateTargetID(core.DCMD, 0)})
		if err != nil || len(res.Items) != 1 {
			t.Errorf("%s: Q1 of a replaced document = %v, %v", e.Name(), res.Items, err)
		}
		e.Close()
	}
}

// TestReplaceCostFlatInCorpusSize measures the disk writes of one U2
// (the pager.write counter, averaged over 20 replaces of one document) on
// DC/MD Small and on Normal, ten times the corpus. A replace that
// rewrites a table, a catalog or an index in proportion to the corpus
// shows up as a ratio near ten; one that touches the document's own pages
// stays near one.
func TestReplaceCostFlatInCorpusSize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads DC/MD Normal into four engines")
	}
	ctx := context.Background()
	perU2 := map[string]map[core.Size]float64{}
	for _, size := range []core.Size{core.Small, core.Normal} {
		db, err := gen.Config{Seed: 5}.Generate(core.DCMD, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range loadedEngines(t, db) {
			name, data := UpdateDoc(core.DCMD, 0, 10)
			for i := 0; i < 2; i++ { // insert, then one replace to settle
				if err := e.ReplaceDocument(ctx, name, data); err != nil {
					t.Fatal(err)
				}
			}
			writes := e.Metrics().Counter("pager.write")
			before := writes.Value()
			const n = 20
			for i := 1; i <= n; i++ {
				_, data := UpdateDoc(core.DCMD, 0, 10+i)
				if err := e.ReplaceDocument(ctx, name, data); err != nil {
					t.Fatal(err)
				}
			}
			if perU2[e.Name()] == nil {
				perU2[e.Name()] = map[core.Size]float64{}
			}
			perU2[e.Name()][size] = float64(writes.Value()-before) / n
			e.Close()
		}
	}
	for name, by := range perU2 {
		small, normal := by[core.Small], by[core.Normal]
		t.Logf("%-12s pager.write per U2: Small %.1f, Normal %.1f", name, small, normal)
		if small <= 0 || normal > 1.5*small {
			t.Errorf("%s: %.1f page writes per U2 on Normal against %.1f on Small: update cost grows with the corpus",
				name, normal, small)
		}
	}
}
