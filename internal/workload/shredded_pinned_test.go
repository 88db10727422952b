package workload

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

const shreddedPinnedFile = "testdata/shredded_pinned.txt"

// rowStore is one relational image of a database: the shredded tables
// under one shredder.Options, or Xcolumn's DAD side tables.
type rowStore struct {
	label  string
	db     *relational.DB
	insert func(name string, rec *xmldom.Record) error
	delete func(name string) error
}

func shreddedStore(class core.Class, opts shredder.Options, label string) *rowStore {
	s := shredder.NewStore(class, xmlschema.Shredded, relational.NewDB(pager.New(256)), opts)
	ids := map[string]string{}
	return &rowStore{
		label: label,
		db:    s.DB,
		insert: func(name string, rec *xmldom.Record) error {
			if _, err := s.ShredDocument(name, rec); err != nil {
				return err
			}
			ids[name], _ = shredder.UnitDocID(class, rec)
			return s.Sync()
		},
		delete: func(name string) error {
			_, err := s.DeleteDocumentRows(context.Background(), ids[name])
			delete(ids, name)
			return err
		},
	}
}

// sideStore keeps side rows the way Xcolumn does: each document under a
// fresh reference, deleted by that reference through a doc index.
func sideStore(class core.Class) *rowStore {
	s := shredder.NewStore(class, xmlschema.DAD, relational.NewDB(pager.New(256)), shredder.Options{})
	refs, next := map[string]string{}, 0
	return &rowStore{
		label: "dad",
		db:    s.DB,
		insert: func(name string, rec *xmldom.Record) error {
			next++
			refs[name] = strconv.Itoa(next)
			_, err := s.ShredDocument(refs[name], rec)
			return err
		},
		delete: func(name string) error {
			_, err := s.DeleteDocumentRows(context.Background(), refs[name])
			delete(refs, name)
			return err
		},
	}
}

// digestTables appends one line per table of s: its row count and a
// SHA-256 over its stored rows in heap order.
func digestTables(t *testing.T, out *strings.Builder, prefix string, s *rowStore) {
	t.Helper()
	for _, tn := range s.db.TableNames() {
		h, n := sha256.New(), 0
		err := s.db.Table(tn).Live().Scan(context.Background(), func(r relational.Rec) bool {
			n++
			fmt.Fprintf(h, "%d:%s", len(r), r)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "%s %s %s %d %x\n", prefix, s.label, tn, n, h.Sum(nil))
	}
}

// shreddedDigests loads every class at Small and Normal (seed 7) into the
// shredded tables under Options{} and {DropMixed: true} and into
// Xcolumn's side tables, digests every table, then — on the
// multi-document classes — applies a seeded run of U1/U2/U3 and digests
// them again.
func shreddedDigests(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	rec := new(xmldom.Record)
	parse := func(data []byte) *xmldom.Record {
		if err := xmldom.ParseRecord(rec, data); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for _, size := range []core.Size{core.Small, core.Normal} {
		for _, class := range core.Classes {
			db, err := gen.Config{Seed: 7}.Generate(class, size)
			if err != nil {
				t.Fatal(err)
			}
			stores := []*rowStore{
				shreddedStore(class, shredder.Options{}, "shredded"),
				shreddedStore(class, shredder.Options{DropMixed: true}, "dropmixed"),
			}
			if !class.SingleDocument() {
				stores = append(stores, sideStore(class))
			}
			prefix := fmt.Sprintf("%s %s", size, class)
			for _, d := range db.Docs {
				for _, s := range stores {
					if err := s.insert(d.Name, parse(d.Data)); err != nil {
						t.Fatalf("%s %s %s: %v", prefix, s.label, d.Name, err)
					}
				}
			}
			for _, s := range stores {
				digestTables(t, &out, prefix+" load", s)
			}
			if class.SingleDocument() {
				continue
			}
			// U2 and U3 target the corpus's unit documents, so a delete
			// frees extents of many rows that later inserts reuse.
			var units []string
			for _, d := range db.Docs {
				if _, ok := shredder.UnitDocID(class, parse(d.Data)); ok {
					units = append(units, d.Name)
				}
			}
			r := rand.New(rand.NewSource(7))
			for seq := 0; seq < 24; seq++ {
				op := UpdateOps[r.Intn(len(UpdateOps))]
				name, data := UpdateDoc(class, seq, 0)
				if op != U1 {
					i := r.Intn(len(units))
					name, units = units[i], append(units[:i], units[i+1:]...)
					_, data = UpdateDoc(class, seq, 1)
				}
				for _, s := range stores {
					if op != U1 {
						if err := s.delete(name); err != nil {
							t.Fatalf("%s %s %s %s: %v", prefix, s.label, op, name, err)
						}
					}
					if op != U3 {
						if err := s.insert(name, parse(data)); err != nil {
							t.Fatalf("%s %s %s %s: %v", prefix, s.label, op, name, err)
						}
					}
				}
			}
			for _, s := range stores {
				digestTables(t, &out, prefix+" updated", s)
			}
		}
	}
	return out.String()
}

// TestShreddedRowsPinned holds the rows the shredder and Xcolumn's side
// tables store — every table of every class, both shredding policies, at
// Small and Normal, after load and after a seeded update run — to the
// committed digests, row for row and in heap order. Answers pinned by
// TestRelationalResultsPinned can survive a changed row no query reads;
// this cannot.
func TestShreddedRowsPinned(t *testing.T) {
	got := shreddedDigests(t)
	if *updatePinned {
		if err := os.WriteFile(shreddedPinnedFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shreddedPinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digest lines, pinned %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("line %d:\n  pinned %s\n  got    %s", i, wantLines[i], gotLines[i])
		}
	}
}
