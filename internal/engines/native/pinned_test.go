package native_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/gen"
	"xbench/internal/queries"
	"xbench/internal/workload"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/results_pinned.txt from this build's answers")

const pinnedFile = "testdata/results_pinned.txt"

// pinnedDigests executes every defined query of every class at Small
// (seed 7, Table 3 indexes built) and returns one line per cell: the
// store ("dom", the persistent-DOM store, which the digest has always
// named), class, query, item count and a SHA-256 over the serialized
// Items.
func pinnedDigests(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var out strings.Builder
	for _, class := range core.Classes {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		params := workload.Params(class)
		e := native.New(0)
		if _, err := e.Load(ctx, db); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildIndexes(queries.Indexes(class)); err != nil {
			t.Fatal(err)
		}
		for q := core.Q1; q <= core.Q20; q++ {
			if queries.Lookup(class, q) == nil {
				continue
			}
			res, err := e.Execute(ctx, q, params)
			if err != nil {
				t.Fatalf("%s/%s: %v", class, q, err)
			}
			h := sha256.New()
			for _, item := range res.Items {
				fmt.Fprintf(h, "%d:%s", len(item), item)
			}
			fmt.Fprintf(&out, "dom %s %s %d %x\n", class, q, len(res.Items), h.Sum(nil))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

// TestResultsPinned holds Execute's serialized answers byte-identical to
// the digest committed before the evaluator moved from decoded trees to
// the record cursor: every class x defined query at Small.
func TestResultsPinned(t *testing.T) {
	got := pinnedDigests(t)
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
