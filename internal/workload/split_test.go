package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xbench/internal/core"
)

// TestQ17FindsWordsMarkupSplits: contains-word searches an article's
// string value, where markup inside a word is gone and references are
// decoded, so a word split by an element, a comment or a CDATA section,
// or spelled with a character reference, is still the word. Each article
// below holds "system" in one such form only, and every engine answers
// all of them — Xcolumn too, whose scan skips a CLOB by its raw bytes
// before parsing it. The last article holds the word only in an
// attribute value and a comment, where no string value has it.
func TestQ17FindsWordsMarkupSplits(t *testing.T) {
	ctx := context.Background()
	article := func(i int, title, p string) core.Doc {
		return core.Doc{Name: fmt.Sprintf("article%d.xml", i), Data: []byte(fmt.Sprintf(
			`<article id="a%d"><prolog><title>%s</title></prolog><body><sec id="s%d"><p>%s</p></sec></body></article>`,
			i, title, i, p))}
	}
	db := &core.Database{Class: core.TCMD, Size: core.Small, Docs: []core.Doc{
		article(1, "alpha", "the sys<kw>tem</kw> here"),
		article(2, "beta", "the &#115;ystem here"),
		article(3, "gamma", "the sys<!-- c -->tem here"),
		article(4, "delta", "the sys<![CDATA[tem]]> here"),
		article(5, "epsilon", `the <kw n="system">sys</kw> tem<!-- system --> here`),
	}}
	want := "<title>alpha</title>|<title>beta</title>|<title>gamma</title>|<title>delta</title>"
	for _, e := range allEngines() {
		if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		e.ColdReset()
		res, err := e.Execute(ctx, core.Q17, core.Params{"W2": "system"})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got := strings.Join(res.Items, "|"); got != want {
			t.Errorf("%s TC/MD Q17 system = %q, want %q", e.Name(), got, want)
		}
		e.Close()
	}
}
