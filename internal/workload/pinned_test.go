package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/relational_pinned.txt from this build's answers")

const pinnedFile = "testdata/relational_pinned.txt"

// relationalDigests executes every defined query of every class at Small
// (seed 7, Table 3 indexes built) on each relational engine that hosts the
// class and returns one line per cell: engine, class, query, item count and
// a SHA-256 over the serialized Items — or "no-query" where the engine
// implements no translation of the query.
func relationalDigests(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var out strings.Builder
	for _, class := range core.Classes {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range allEngines()[1:] {
			if e.Supports(class, core.Small) != nil {
				continue
			}
			if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
				t.Fatalf("%s %s: %v", e.Name(), class, err)
			}
			for _, q := range QueryIDs(class) {
				res, err := e.Execute(ctx, q, Params(class))
				if errors.Is(err, core.ErrNoQuery) {
					fmt.Fprintf(&out, "%s %s %s no-query\n", e.Name(), class, q)
					continue
				}
				if err != nil {
					t.Fatalf("%s %s/%s: %v", e.Name(), class, q, err)
				}
				h := sha256.New()
				for _, item := range res.Items {
					fmt.Fprintf(h, "%d:%s", len(item), item)
				}
				fmt.Fprintf(&out, "%s %s %s %d %x\n", e.Name(), class, q, len(res.Items), h.Sum(nil))
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.String()
}

// TestRelationalResultsPinned holds the serialized answers of Xcolumn,
// Xcollection and SQL Server byte-identical to the committed digest: every
// class x defined query at Small. TestCrossEngineEquivalence compares only
// the benchmarked queries, and its count-only and lossy modes cannot see a
// changed byte.
func TestRelationalResultsPinned(t *testing.T) {
	got := relationalDigests(t)
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("cell %d:\n  pinned %s\n  got    %s", i, w, g)
		}
	}
}
