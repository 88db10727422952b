package xquery

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/queries"
)

// updateSurface rewrites the pinned surface instead of diffing it:
//
//	go test ./internal/xquery -run TestXQuerySurface -update-surface
var updateSurface = flag.Bool("update-surface", false, "rewrite results/xquery_surface.txt")

const surfaceFile = "../../results/xquery_surface.txt"

// surfaceInput is one query the repo runs outside the catalog, copied
// verbatim from the file that runs it; the test checks that the file still
// holds it, so a changed query fails here instead of drifting.
type surfaceInput struct {
	file, query string
}

var surfaceInputs = []surfaceInput{
	// The quick-start query.
	{"README.md", `//item[number(attributes/number_of_pages) > 900]/title`},
	// The one query the benchmark's layer pass times through EvalXQuery.
	{"benchmarks/e2e/layers.go", `for $o in //order[total > 0] order by $o/@id return $o/total`},
	// The ad-hoc queries of the examples.
	{"examples/quickstart/main.go", "for $i in //item[number(attributes/number_of_pages) > 900]\n\t\t order by $i/title\n\t\t return concat(string($i/title), \" (\", string($i/attributes/number_of_pages), \" pages)\")"},
	{"examples/newsarchive/main.go", "for $a in //article\n\t\t where exists($a/epilog/references/a_id)\n\t\t return concat(string($a/@id), \" -> \", string-join(data($a/epilog/references/a_id/@target), \" \"))"},
	// BenchmarkXQueryEngine.
	{"bench_test.go", `//item[@id = "I7"]/title`},
	{"bench_test.go", `count(//item[number(attributes/number_of_pages) > 500])`},
	{"bench_test.go", `for $i in //item order by $i/subject return $i/@id`},
	{"bench_test.go", `//item[every $a in authors/author satisfies exists($a/contact_information)]/@id`},
	// TestPublicEvalXQuery.
	{"xbench_test.go", `sum(//v)`},
	{"xbench_test.go", `//v[. = $X]`},
}

// TestXQuerySurface pins the XQuery the repo runs: every catalog
// instantiation and every query the callers above pass to EvalXQuery,
// reduced to the builtins, operators, axes, FLWOR clauses and expression
// kinds they use. results/xquery_surface.txt is that list; a query that
// starts using a construct, or stops, moves a line of it. Parse accepts
// what the list holds — the general comparisons as one family, concat at
// any arity from two — and refuses the rest by name.
func TestXQuerySurface(t *testing.T) {
	t.Run("pinned", testSurfacePinned)
	t.Run("rejected", func(t *testing.T) {
		for _, c := range []struct{ src, construct, at string }{
			{`//item[translate(@id, "I", "J") = $X]`, "translate()", "translate"},
			{`if (//item) then 1 else 2`, "if", "if"},
			{`let $x := //item return $x`, "let", "let"},
			{`for $i at $p in //item return $p`, "for … at", "at"},
			{`//order[total + 1 > 5]`, "+", "+"},
			{`//order[total > -1]`, "unary -", "-"},
			{`//order | //customer`, "|", "|"},
			{`//order[@id eq $X]`, "eq", "eq"},
			{`//order[@id = $X or @id = $Y]`, "or", "or @"},
			{`//total/..`, "..", ".."},
			{`//total/parent::order`, "parent::", "parent"},
			{`//p/text()`, "text()", "text"},
			{`//@id`, "//@", "@"},
			{`//item/@*`, "@*", "*"},
			{`/catalog/item`, "leading /", "/"},
			{`//item, //order`, "sequence (,)", ","},
			{`count(())`, "()", "()"},
			{`for $i in //item order by $i/@id descending return $i`, "descending", "descending"},
			{`for $i in //item order by $i/title, $i/@id return $i`, "order by, a further key", ","},
			{`$X[1]`, "predicate on a primary", "["},
		} {
			rejects(t, c.src, c.construct, c.at)
		}
	})
}

func testSurfacePinned(t *testing.T) {
	type input struct{ name, query string }
	var inputs []input
	for _, class := range core.Classes {
		for _, d := range queries.ForClass(class) {
			inputs = append(inputs, input{fmt.Sprintf("%s %s", class, d.ID), d.XQuery})
		}
	}
	catalog := len(inputs)
	for _, in := range surfaceInputs {
		src, err := os.ReadFile("../../" + in.file)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), in.query) {
			t.Errorf("%s no longer holds %q: update surfaceInputs and the surface", in.file, in.query)
		}
		inputs = append(inputs, input{in.file, in.query})
	}

	uses := map[string]int{} // "kind\tconstruct" -> inputs that use it
	for _, in := range inputs {
		q, err := Parse(in.query)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		s := surface{}
		s.expr(q.root)
		for c := range s {
			uses[c]++
		}
	}
	lines := make([]string, 0, len(uses))
	for c, n := range uses {
		lines = append(lines, fmt.Sprintf("%s\t%d", c, n))
	}
	sort.Strings(lines)
	var b strings.Builder
	fmt.Fprintf(&b, "# The XQuery surface: what the %d catalog instantiations and the %d\n", catalog, len(surfaceInputs))
	b.WriteString("# other queries the repo runs (internal/xquery/surface_test.go lists\n")
	b.WriteString("# them) use. One line per construct: kind, construct, inputs using it.\n")
	b.WriteString("# Regenerate: go test ./internal/xquery -run TestXQuerySurface -update-surface\n")
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	got := b.String()
	if *updateSurface {
		if err := os.WriteFile(surfaceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatalf("missing %s (run with -update-surface): %v", surfaceFile, err)
	}
	if got != string(want) {
		t.Errorf("the surface drifted from %s\n--- got\n%s--- want\n%s", surfaceFile, got, want)
	}
}

// surface is the set of constructs one query uses, "kind\tconstruct".
type surface map[string]bool

func (s surface) add(kind, construct string) { s[kind+"\t"+construct] = true }

func (s surface) expr(e expr) {
	switch v := e.(type) {
	case literal:
		if v.isNum {
			s.add("expr", "number literal")
		} else {
			s.add("expr", "string literal")
		}
	case varRef:
		s.add("expr", "variable")
	case contextItem:
		s.add("expr", "context item .")
	case pathExpr:
		switch {
		case v.fromRoot:
			s.add("path", "rooted //")
		case v.input != nil:
			s.add("path", "from a primary")
			s.expr(v.input)
		default:
			s.add("path", "relative")
		}
		for _, st := range v.steps {
			s.step(st)
		}
	case binary:
		s.add("operator", v.op)
		s.expr(v.l)
		s.expr(v.r)
	case call:
		s.add("builtin", fmt.Sprintf("%s/%d", v.fn.name, len(v.args)))
		for _, a := range v.args {
			s.expr(a)
		}
	case flwor:
		s.add("expr", "FLWOR")
		for i, cl := range v.clauses {
			if i == 0 {
				s.add("flwor", "for")
			} else {
				s.add("flwor", "for, a further variable")
			}
			s.expr(cl.src)
		}
		if v.where != nil {
			s.add("flwor", "where")
			s.expr(v.where)
		}
		if v.orderBy != nil {
			s.add("flwor", "order by")
			s.expr(v.orderBy)
		}
		s.add("flwor", "return")
		s.expr(v.ret)
	case quantified:
		if v.every {
			s.add("expr", "every … satisfies")
		} else {
			s.add("expr", "some … satisfies")
		}
		s.expr(v.src)
		s.expr(v.cond)
	case elemCtor:
		s.ctor(v, false)
	}
}

func (s surface) step(st step) {
	switch st.axis {
	case axisChild:
		s.add("axis", "child")
	case axisDescendant:
		s.add("axis", "descendant")
	case axisAttribute:
		s.add("axis", "attribute")
	case axisFollowingSibling:
		s.add("axis", "following-sibling::")
	}
	if st.name == "*" {
		s.add("path", "wildcard *")
	}
	for _, p := range st.preds {
		if lit, ok := p.(literal); ok && lit.isNum {
			s.add("path", "positional predicate [n]")
		} else {
			s.add("path", "predicate")
		}
		s.expr(p)
	}
}

func (s surface) ctor(c elemCtor, nested bool) {
	if nested {
		s.add("constructor", "nested element")
	} else {
		s.add("constructor", "element")
	}
	for _, a := range c.attrs {
		s.add("constructor", "attribute")
		for _, part := range a.parts {
			if e, ok := part.(expr); ok {
				s.add("constructor", "enclosed expression in an attribute")
				s.expr(e)
			}
		}
	}
	for _, part := range c.content {
		switch p := part.(type) {
		case elemCtor:
			s.ctor(p, true)
		case expr:
			s.add("constructor", "enclosed expression")
			s.expr(p)
		}
	}
}

// FuzzParse: whatever the input, Parse returns a query or an *Error at an
// offset inside the input, and never panics (make fuzz). The seeds are the
// queries the surface is pinned from.
func FuzzParse(f *testing.F) {
	for _, class := range core.Classes {
		for _, d := range queries.ForClass(class) {
			f.Add(d.XQuery)
		}
	}
	for _, in := range surfaceInputs {
		f.Add(in.query)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		var e *Error
		switch {
		case err == nil && q == nil:
			t.Fatalf("Parse(%q) returned neither a query nor an error", src)
		case err != nil && (!errors.As(err, &e) || e.Pos < 0 || e.Pos > len(src)):
			t.Fatalf("Parse(%q) = %v, want an *Error at an offset in [0, %d]", src, err, len(src))
		}
	})
}
