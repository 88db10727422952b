package xmldom_test

import (
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// TestParseRecordMatchesTree holds ParseRecord and RootName to Parse
// (xmldom.CheckParseRecord) on every Small document of the four classes
// at generator seed 7 and on the package's fixtures, well-formed and not.
func TestParseRecordMatchesTree(t *testing.T) {
	for _, class := range []core.Class{core.DCSD, core.DCMD, core.TCSD, core.TCMD} {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range db.Docs {
			xmldom.CheckParseRecord(t, d.Data)
		}
	}
	for _, src := range edgeDocs {
		xmldom.CheckParseRecord(t, []byte(src))
	}
	for _, tc := range syntaxErrors {
		xmldom.CheckParseRecord(t, []byte(tc.src))
	}
}

// TestRootName: the root element's name by the parser's prolog rules,
// where a comment, PI or DOCTYPE before it holds what looks like another.
func TestRootName(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{`<order id="1"/>`, "order"},
		{"  \n<order>", "order"}, // the rest is not read
		{`<?xml version="1.0"?><!-- <order> --><item/>`, "item"},
		{`<?p <order?><item/>`, "item"},
		{`<!DOCTYPE item [<!ENTITY o "<order>">]><item/>`, "item"},
		{`<!-- a --><?b c?><!DOCTYPE d><!-- <order --><article><order/></article>`, "article"},
		{`<x:order.v-1 a="b">`, "x:order.v-1"},
		{``, ""},
		{`text <order/>`, ""},
		{`<!-- unclosed <order/>`, ""},
		{`< order/>`, ""},
	} {
		name, ok := xmldom.RootName([]byte(tc.src))
		if string(name) != tc.want || ok != (tc.want != "") {
			t.Errorf("RootName(%q) = %q, %v; want %q", tc.src, name, ok, tc.want)
		}
	}
}
