package xquery

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xbench/internal/xmldom"
)

// mustRecord parses src into a fresh record, as a load hands documents
// to the evaluator.
func mustRecord(src string) *xmldom.Record {
	rec := new(xmldom.Record)
	if err := xmldom.ParseRecord(rec, []byte(src)); err != nil {
		panic(err)
	}
	return rec
}

// testColl builds a small two-document collection shaped like the
// benchmark data.
func testColl() *Collection {
	c := NewCollection()
	c.Add("catalog.xml", mustRecord(`<catalog>
		<item id="I1"><title>Go Databases</title><price>30</price>
			<authors>
				<author><name>Ada</name><country>Canada</country></author>
				<author><name>Bob</name><country>Canada</country></author>
			</authors>
			<publisher><name>P One</name><fax>111</fax></publisher>
		</item>
		<item id="I2"><title>XML Systems</title><price>45</price>
			<authors>
				<author><name>Eve</name><country>France</country></author>
			</authors>
			<publisher><name>P Two</name></publisher>
		</item>
		<item id="I3"><title>Query Processing</title><price>12</price>
			<authors>
				<author><name>Ada</name><country>Canada</country></author>
			</authors>
			<publisher><name>P Three</name></publisher>
		</item>
	</catalog>`))
	c.Add("article1.xml", mustRecord(`<article id="a1">
		<title>On Systems</title>
		<sec id="s1"><heading>Introduction</heading><p>first words here</p></sec>
		<sec id="s2"><heading>Methods</heading><p>more data about systems</p></sec>
		<sec id="s3"><heading>Results</heading><p>empty</p></sec>
	</article>`))
	return c
}

// evalIn parses src and evaluates it over coll with no variables bound.
func evalIn(t *testing.T, coll *Collection, src string) Seq {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	s, err := q.Eval(context.Background(), coll, nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return s
}

func run(t *testing.T, src string) Seq {
	t.Helper()
	return evalIn(t, testColl(), src)
}

func strs(s Seq) []string { return SerializeSeq(s) }

// rejects checks that Parse refuses src as outside the subset, naming
// construct at the offset where at first occurs in src.
func rejects(t *testing.T, src, construct, at string) {
	t.Helper()
	_, err := Parse(src)
	var e *Error
	want := "not in the XBench subset: " + construct
	if !errors.As(err, &e) || e.Msg != want || e.Pos != strings.Index(src, at) {
		t.Errorf("Parse(%q) = %v, want %q at offset %d", src, err, want, strings.Index(src, at))
	}
}

func TestSimplePaths(t *testing.T) {
	if got := strs(run(t, `//catalog/item/title`)); !reflect.DeepEqual(got, []string{
		"<title>Go Databases</title>", "<title>XML Systems</title>", "<title>Query Processing</title>",
	}) {
		t.Fatalf("titles = %v", got)
	}
	if got := run(t, `//price`); len(got) != 3 {
		t.Fatalf("//price = %d items", len(got))
	}
	if got := strs(run(t, `//item/@id`)); !reflect.DeepEqual(got, []string{"I1", "I2", "I3"}) {
		t.Fatalf("ids = %v", got)
	}
	if got := strs(run(t, `//*/@id`)); len(got) != 7 { // 3 items + article + 3 secs
		t.Fatalf("//*/@id = %v", got)
	}
}

func TestWildcardAndUnknownElementPaths(t *testing.T) {
	// Q8-style: one unknown element name in the path.
	got := strs(run(t, `//catalog/*/title`))
	if len(got) != 3 {
		t.Fatalf("wildcard path = %v", got)
	}
	// Q9-style: multiple unknown steps via //.
	got = strs(run(t, `//catalog//name`))
	if len(got) != 7 { // 4 author names + 3 publisher names
		t.Fatalf("//name = %v", got)
	}
}

func TestPredicates(t *testing.T) {
	got := strs(run(t, `//item[@id = "I2"]/title`))
	if len(got) != 1 || !strings.Contains(got[0], "XML Systems") {
		t.Fatalf("exact match = %v", got)
	}
	// Positional predicate is per context node: first author of each item.
	got = strs(run(t, `//item/authors/author[1]/name`))
	if len(got) != 3 || !strings.Contains(got[0], "Ada") || !strings.Contains(got[1], "Eve") {
		t.Fatalf("first authors = %v", got)
	}
	// A positional predicate inside a boolean one: items with a second author.
	got = strs(run(t, `//item[authors/author[2]]/@id`))
	if !reflect.DeepEqual(got, []string{"I1"}) {
		t.Fatalf("second author = %v", got)
	}
	// Numeric comparison inside predicate.
	got = strs(run(t, `//item[price > 25]/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I2"}) {
		t.Fatalf("price filter = %v", got)
	}
	// Chained predicates.
	got = strs(run(t, `//item[price > 10][2]/@id`))
	if !reflect.DeepEqual(got, []string{"I2"}) {
		t.Fatalf("chained predicates = %v", got)
	}
}

func TestMissingElementPredicate(t *testing.T) {
	// Q14-style: publishers without a fax.
	got := strs(run(t, `//publisher[empty(fax)]/name`))
	if len(got) != 2 {
		t.Fatalf("no-fax publishers = %v", got)
	}
	got = strs(run(t, `//publisher[exists(fax)]/name`))
	if len(got) != 1 {
		t.Fatalf("exists(fax) = %v", got)
	}
}

func TestFLWOR(t *testing.T) {
	got := strs(run(t, `for $i in //item where $i/price > 20 return $i/title`))
	if len(got) != 2 {
		t.Fatalf("FLWOR where = %v", got)
	}
	// order by string.
	got = strs(run(t, `for $t in //item/title order by string($t) return string($t)`))
	if !reflect.DeepEqual(got, []string{"Go Databases", "Query Processing", "XML Systems"}) {
		t.Fatalf("order by = %v", got)
	}
	// order by number.
	got = strs(run(t, `for $i in //item order by number($i/price) return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I3", "I1", "I2"}) {
		t.Fatalf("numeric order = %v", got)
	}
	// Two for variables produce a product.
	got = strs(run(t, `for $i in //item[price > 20], $s in //sec[heading != "Methods"]
		return concat(string($i/@id), "/", string($s/@id))`))
	if !reflect.DeepEqual(got, []string{"I1/s1", "I1/s3", "I2/s1", "I2/s3"}) {
		t.Fatalf("product = %v", got)
	}
}

func TestQuantified(t *testing.T) {
	// Q7-style universal quantification.
	got := strs(run(t, `for $i in //item
		where every $a in $i/authors/author satisfies $a/country = "Canada"
		return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I3"}) {
		t.Fatalf("every = %v", got)
	}
	got = strs(run(t, `for $i in //item
		where some $a in $i/authors/author satisfies $a/name = "Eve"
		return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I2"}) {
		t.Fatalf("some = %v", got)
	}
	// every over the empty sequence is true.
	got = strs(run(t, `every $x in //nothing satisfies $x = 1`))
	if !reflect.DeepEqual(got, []string{"true"}) {
		t.Fatalf("vacuous every = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	cases := map[string]string{
		`sum(//price)`:     "87",
		`avg(//price)`:     "29",
		`count(//item)`:    "3",
		`sum(//nothing)`:   "0",
		`count(//nothing)`: "0",
	}
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
	if got := run(t, `avg(//nothing)`); len(got) != 0 {
		t.Errorf("avg of nothing = %v, want nothing", got)
	}
}

func TestStringFunctions(t *testing.T) {
	cases := map[string]string{
		`contains("hello world", "lo wo")`:      "true",
		`contains("hello", "xyz")`:              "false",
		`contains-word("the quick fox", "fox")`: "true",
		`contains-word("foxes run", "fox")`:     "false",
		`concat("a", "b", "c")`:                 "abc",
		`string(//item[2]/title)`:               "XML Systems",
		`string(//nothing)`:                     "",
		`string-join(//item/@id, "-")`:          "I1-I2-I3",
		`string-join(data(//price), ",")`:       "30,45,12",
	}
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
}

// TestArithmeticAndComparisons: the general comparisons compare numbers
// when both sides are numbers and strings otherwise; arithmetic is not in
// the subset, and Parse says so.
func TestArithmeticAndComparisons(t *testing.T) {
	cases := map[string]string{
		`2 < 10`:         "true",
		`"2" < "10"`:     "true", // both numeric-parseable: numeric compare wins
		`"a" < "b"`:      "true",
		`1 = 1.0`:        "true",
		`"b" <= "a"`:     "false",
		`//price >= 45`:  "true",
		`//price != 12`:  "true",
		`//title = "no"`: "false",
	}
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
	rejects(t, `1 + 2`, "+", "+")
	rejects(t, `//price - 1`, "-", "-")
	rejects(t, `//price * 2`, "*", "* 2")
	rejects(t, `10 div 4`, "div", "div")
	rejects(t, `count(1 to 5)`, "to", "to")
	rejects(t, `-5`, "unary -", "-")
}

func TestExistentialComparison(t *testing.T) {
	// General comparison is existential over node sequences.
	got := strs(run(t, `//item[authors/author/name = "Ada"]/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I3"}) {
		t.Fatalf("existential = %v", got)
	}
}

// TestIfExpr: a conditional is not in the subset, but 'if' is still a
// name an element may have.
func TestIfExpr(t *testing.T) {
	rejects(t, `if (count(//item) > 2) then "many" else "few"`, "if", "if")
	c := NewCollection()
	c.Add("d.xml", mustRecord(`<r><if>x</if></r>`))
	if s := evalIn(t, c, `//if`); len(s) != 1 {
		t.Fatalf("element named if: %v", s)
	}
}

func TestElementConstructors(t *testing.T) {
	got := strs(run(t, `for $i in //item[@id = "I1"]
		return <result id="{$i/@id}">{$i/title}</result>`))
	want := `<result id="I1"><title>Go Databases</title></result>`
	if len(got) != 1 || got[0] != want {
		t.Fatalf("constructor = %v", got)
	}
	// Nested constructors with mixed literal text.
	got = strs(run(t, `<out><n>static</n><v>{count(//item)}</v></out>`))
	if !reflect.DeepEqual(got, []string{"<out><n>static</n><v>3</v></out>"}) {
		t.Fatalf("nested ctor = %v", got)
	}
	// Atomic sequence items are space-separated.
	got = strs(run(t, `<s>{data(//item/@id)}</s>`))
	if !reflect.DeepEqual(got, []string{"<s>I1 I2 I3</s>"}) {
		t.Fatalf("atomic spacing = %v", got)
	}
	// Constructed content is cloned, not aliased.
	got = strs(run(t, `<w>{//item[1]/title}</w>`))
	if !strings.Contains(got[0], "<title>Go Databases</title>") {
		t.Fatalf("clone = %v", got)
	}
}

// TestSiblingAxes: following-sibling is the one sibling axis the catalog
// uses (Q4); preceding-sibling is not in the subset.
func TestSiblingAxes(t *testing.T) {
	// Q4-style: the section following the Introduction.
	got := strs(run(t, `//sec[heading = "Introduction"]/following-sibling::sec[1]/heading`))
	if len(got) != 1 || !strings.Contains(got[0], "Methods") {
		t.Fatalf("following-sibling = %v", got)
	}
	rejects(t, `//sec[heading = "Results"]/preceding-sibling::sec[1]/heading`, "preceding-sibling::", "preceding")
}

// TestParentAxisAndDotDot: neither the parent axis nor its abbreviation
// is in the subset.
func TestParentAxisAndDotDot(t *testing.T) {
	rejects(t, `//heading[. = "Methods"]/../@id`, "..", "..")
	rejects(t, `..`, "..", "..")
	rejects(t, `//heading[. = "Methods"]/parent::sec/@id`, "parent::", "parent")
}

func TestDocFunction(t *testing.T) {
	got := strs(run(t, `doc("article1.xml")//heading[1]`))
	if len(got) != 1 || !strings.Contains(got[0], "Introduction") {
		t.Fatalf("doc() = %v", got)
	}
	q, err := Parse(`doc("missing.xml")//x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Eval(context.Background(), testColl(), nil); err == nil {
		t.Fatal("doc of missing document succeeded")
	}
}

func TestDistinctValues(t *testing.T) {
	got := strs(run(t, `distinct-values(//author/country)`))
	if !reflect.DeepEqual(got, []string{"Canada", "France"}) {
		t.Fatalf("distinct-values = %v", got)
	}
}

func TestExternalVariables(t *testing.T) {
	q, err := Parse(`//item[@id = $X]/title`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.Eval(context.Background(), testColl(), map[string]string{"X": "I3"})
	if err != nil || len(s) != 1 {
		t.Fatalf("external var: %v, %v", s, err)
	}
	if !strings.Contains(strs(s)[0], "Query Processing") {
		t.Fatalf("wrong item: %v", strs(s))
	}
	if _, err := q.Eval(context.Background(), testColl(), nil); err == nil {
		t.Fatal("unbound variable did not error")
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	// Nested context nodes reach the same names many times: each once.
	got := strs(run(t, `count(//*//name)`))
	if !reflect.DeepEqual(got, []string{"7"}) {
		t.Fatalf("dedup = %v", got)
	}
	// Cross-document order follows collection order.
	got = strs(run(t, `//title`))
	if len(got) != 4 || !strings.Contains(got[3], "On Systems") {
		t.Fatalf("cross-doc order = %v", got)
	}
}

// TestTextNodeStep: kind tests are not in the subset; string() gives a
// node's text.
func TestTextNodeStep(t *testing.T) {
	rejects(t, `//sec[@id = "s1"]/p/text()`, "text()", "text")
	rejects(t, `//sec/node()`, "node()", "node")
	got := strs(run(t, `string(//sec[@id = "s1"]/p)`))
	if !reflect.DeepEqual(got, []string{"first words here"}) {
		t.Fatalf("string() = %v", got)
	}
}

func TestCommentsInQuery(t *testing.T) {
	got := strs(run(t, `(: find items :) count(//item (: all of them :))`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("comments = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x in`,
		`//item[`,
		`//item =`,
		`<a>{1}</b>`,
		`for $x in //a`, // missing return
		`some $x in //a`,
		`"unterminated`,
		`$`,
		`count(1`,
		`(: unterminated comment`,
		`//item)`,
	}
	for _, src := range bad {
		_, err := Parse(src)
		var e *Error
		if !errors.As(err, &e) {
			t.Errorf("Parse(%q) = %v, want an *Error", src, err)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	coll := testColl()
	bad := []string{
		`$undefined`,
		`sum(//title)`, // non-numeric sum
		`number("abc")`,
		`doc("missing.xml")`,
		`.`,
		`count(title)`, // a relative path with no context item
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := q.Eval(context.Background(), coll, nil); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

// containsWordCases: ASCII in every case mix, the word at both ends of
// the text, '_' and digits as word characters, and non-ASCII input whose
// Unicode lower-casing changes lengths or yields an ASCII letter (the
// Kelvin sign and dotted capital I lower-case to k and i).
var containsWordCases = []struct {
	text, word string
	want       bool
}{
	{"the quick fox", "fox", true},
	{"the quick fox", "FOX", true},
	{"The Quick FoX", "fOx", true},
	{"foxes", "fox", false},
	{"end fox", "fox", true},
	{"fox start", "fox", true},
	{"fox", "fox", true},
	{"a-fox-b", "fox", true},
	{"", "fox", false},
	{"fox", "", false},
	{"", "", false},
	{"prefix foxfox", "fox", false},
	{"foxfox fox", "fox", true},
	{"punct fox.", "fox", true},
	{"fo", "fox", false},
	{"a fo", "fox", false},
	{"fox_", "fox", false},
	{"_fox", "fox", false},
	{"fox1", "fox", false},
	{"1fox", "fox", false},
	{"1 fox 2", "fox", true},
	{"x_1 is here", "X_1", true},
	{"a.b", ".", false},
	{"- . -", ".", true},
	{"naïve fox", "fox", true},
	{"naïve", "naïve", true},
	{"NAÏVE", "naïve", true},
	{"foxé", "fox", true},
	{"foxK", "fox", false},         // Kelvin sign: foxk
	{"Kfox", "fox", false},         // kfox
	{"a Kelvin b", "kelvin", true}, // Kelvin sign inside the word
	{"İstanbul", "istanbul", true},
	{"Ⱥ fox", "fox", true}, // lower-cases to a longer encoding
	{"fox ÿþ", "fox", true},
	{"ÿfox", "fox", true},
	{"café fox", "CAFÉ", true},
	// Words across, at and after the eight-byte blocks.
	{"1234567 fox", "fox", true},
	{"12345 fox", "fox", true},
	{"1234 fox", "fox", true},
	{"12345678fox", "fox", false},
	{"1234567 foxes, then fox", "fox", true},
	{"zz zzzzzz zz", "zzzzzz", true},
	{"aaaaaaaaaaaaaaaaaaaaaaaa quartz", "QUARTZ", true},
	{"quartzes and quartz", "quartz", true},
	{"12345678", "12345678", true},
	{"1234567é fox", "fox", true},
	{"é", "é", true},
	{"é", "", false},
}

// TestContainsWord: the in-place ASCII fold, on a string and on bytes,
// through ContainsWord and through a compiled word, answers what the
// lower-cased-copy definition answers, and allocates nothing on ASCII
// input.
func TestContainsWord(t *testing.T) {
	for _, c := range containsWordCases {
		if got := containsWordFold(c.text, c.word); got != c.want {
			t.Errorf("containsWordFold(%q, %q) = %v", c.text, c.word, got)
		}
		checkWord(t, c.text, c.word, c.want)
	}
	text := strings.Repeat("Systems of record, systemic risk; ", 200) + "the SYSTEM"
	raw := []byte(text)
	w := CompileWord("sYstem")
	allocs := testing.AllocsPerRun(20, func() {
		if !ContainsWord(text, "system") || !ContainsWord(raw, "System") || ContainsWord(raw, "absent") ||
			!w.Match(raw) || !w.MatchString(text) {
			t.Fatal("wrong answer on the long ASCII text")
		}
	})
	if allocs != 0 {
		t.Fatalf("ContainsWord on ASCII input allocates %.0f objects, want 0", allocs)
	}
}

// checkWord holds ContainsWord and CompileWord, on a string and on bytes,
// to want.
func checkWord(t *testing.T, text, word string, want bool) {
	t.Helper()
	if got := ContainsWord(text, word); got != want {
		t.Fatalf("ContainsWord(%q, %q) = %v, want %v", text, word, got, want)
	}
	if got := ContainsWord([]byte(text), word); got != want {
		t.Fatalf("ContainsWord([]byte(%q), %q) = %v, want %v", text, word, got, want)
	}
	w := CompileWord(word)
	if got := w.MatchString(text); got != want {
		t.Fatalf("CompileWord(%q).MatchString(%q) = %v, want %v", word, text, got, want)
	}
	if got := w.Match([]byte(text)); got != want {
		t.Fatalf("CompileWord(%q).Match([]byte(%q)) = %v, want %v", word, text, got, want)
	}
}

// FuzzContainsWord holds both instantiations of ContainsWord, and a
// compiled word's Match and MatchString, to the definition on arbitrary
// bytes, valid UTF-8 or not (make fuzz).
func FuzzContainsWord(f *testing.F) {
	for _, c := range containsWordCases {
		f.Add(c.text, c.word)
	}
	f.Fuzz(func(t *testing.T, text, word string) {
		checkWord(t, text, word, containsWordFold(text, word))
	})
}

// BenchmarkContainsWord: Q17's inner loop over a 4 KB ASCII paragraph,
// on a string and on bytes, where the word is absent (the whole text is
// scanned, as for most documents Q17 rejects) and where it closes the
// text.
func BenchmarkContainsWord(b *testing.B) {
	words := strings.Fields("the quick brown fox jumps over a lazy dog while Systems of record keep their Risk under control")
	var sb strings.Builder
	for i := 0; sb.Len() < 4096; i++ {
		sb.WriteString(words[(i*7)%len(words)])
		sb.WriteString(" ")
	}
	text := sb.String()
	for _, c := range []struct{ name, word string }{{"absent", "thermal"}, {"last", "quantity"}} {
		s := text
		if c.name == "last" {
			s += c.word
		}
		raw := []byte(s)
		b.Run(c.name+"/string", func(b *testing.B) {
			b.SetBytes(int64(len(s)))
			for i := 0; i < b.N; i++ {
				if ContainsWord(s, c.word) != (c.name == "last") {
					b.Fatal("wrong answer")
				}
			}
		})
		b.Run(c.name+"/bytes", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if ContainsWord(raw, c.word) != (c.name == "last") {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}

// TestUnionOperator: union is not in the subset, in either spelling.
func TestUnionOperator(t *testing.T) {
	rejects(t, `count(//title | //price)`, "|", "|")
	rejects(t, `count(//heading union //title)`, "union", "union")
}

// TestIdivAndModErrors: integer division and modulo are not in the subset,
// so a zero divisor is refused at Parse, before anything runs.
func TestIdivAndModErrors(t *testing.T) {
	rejects(t, `7 idiv 2`, "idiv", "idiv")
	rejects(t, `1 idiv 0`, "idiv", "idiv")
	rejects(t, `1 mod 0`, "mod", "mod")
}

// TestMoreStringAndNumericFunctions: the builtins the catalog does not call
// are refused at Parse, by name.
func TestMoreStringAndNumericFunctions(t *testing.T) {
	for _, src := range []string{
		`ends-with("catalog", "log")`,
		`substring-before("2001-05-17", "-")`,
		`substring-after("2001-05-17", "-")`,
		`translate("2001-05-17", "-", "/")`,
		`round(2.5)`, `floor(2.9)`, `ceiling(2.1)`, `abs(4)`,
		`min(//price)`, `max(//price)`, `not(//fax)`, `position()`, `last()`,
		`starts-with("hello", "he")`, `string-length("abcd")`, `substring("abcdef", 2)`,
		`lower-case("AbC")`, `normalize-space("a")`, `name(//item)`, `true()`,
	} {
		name := src[:strings.Index(src, "(")]
		rejects(t, src, name+"()", name)
	}
}

// TestUnionInPredicate: the refusal points into the predicate.
func TestUnionInPredicate(t *testing.T) {
	rejects(t, `//item[publisher/fax | authors/author[name = "Eve"]]/@id`, "|", "|")
}

func TestEvalCtorAttributeExpressions(t *testing.T) {
	got := strs(run(t, `for $i in //item[1] return <out id="pre-{$i/@id}-post" n="{count($i/authors/author)}"/>`))
	if !reflect.DeepEqual(got, []string{`<out id="pre-I1-post" n="2"/>`}) {
		t.Fatalf("attr ctor = %v", got)
	}
}

// TestFunctionArityErrors: a call with the wrong number of arguments is
// refused at Parse, at the function's name.
func TestFunctionArityErrors(t *testing.T) {
	for src, want := range map[string]string{
		`count()`:                  "count() takes 1 argument(s), got 0",
		`//a[count(1, 2)]`:         "count() takes 1 argument(s), got 2",
		`contains("a")`:            "contains() takes 2 argument(s), got 1",
		`doc()`:                    "doc() takes 1 argument(s), got 0",
		`string-join("a")`:         "string-join() takes 2 argument(s), got 1",
		`concat("a")`:              "concat() takes at least 2 argument(s), got 1",
		`exists(//a, //b)`:         "exists() takes 1 argument(s), got 2",
		`distinct-values()`:        "distinct-values() takes 1 argument(s), got 0",
		`contains-word("a", 1, 2)`: "contains-word() takes 2 argument(s), got 3",
	} {
		_, err := Parse(src)
		var e *Error
		at := strings.Index(src, want[:strings.Index(want, "(")+1])
		if !errors.As(err, &e) || e.Msg != want || e.Pos != at {
			t.Errorf("Parse(%q) = %v, want %q at offset %d", src, err, want, at)
		}
	}
}

func TestNumberFormatting(t *testing.T) {
	if FormatNumber(3) != "3" || FormatNumber(2.5) != "2.5" || FormatNumber(-7) != "-7" {
		t.Fatal("FormatNumber wrong")
	}
	c := NewCollection()
	c.Add("d.xml", mustRecord(`<r><n>1.5</n><n>1.5</n></r>`))
	got := strs(evalIn(t, c, `sum(//n)`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("whole float rendered as %v", got)
	}
}

// TestNestedFLWORAndLetChains: a FLWOR nests in return position; 'let' is
// not in the subset, and a where clause computes what a let chain would.
func TestNestedFLWORAndLetChains(t *testing.T) {
	got := strs(run(t, `for $i in //item
		where count($i/authors/author) > 1
		return concat(string($i/@id), ":", string(count($i/authors/author)))`))
	if !reflect.DeepEqual(got, []string{"I1:2"}) {
		t.Fatalf("where chain = %v", got)
	}
	rejects(t, `for $i in //item let $n := count($i/authors/author) return $n`, "let", "let")
	rejects(t, `let $all := //item return count($all)`, "let", "let")
	rejects(t, `for $i at $p in //item return $p`, "for … at", "at")
	// Nested FLWOR in return position.
	got = strs(run(t, `for $i in //item[@id = "I1"]
		return for $a in $i/authors/author return string($a/name)`))
	if !reflect.DeepEqual(got, []string{"Ada", "Bob"}) {
		t.Fatalf("nested flwor = %v", got)
	}
}

// TestOrderByMultipleKeys: order by takes one key, ascending; a second
// key and the direction modifiers are not in the subset.
func TestOrderByMultipleKeys(t *testing.T) {
	got := strs(run(t, `for $a in //author
		order by concat(string($a/country), "/", string($a/name))
		return concat(string($a/country), "/", string($a/name))`))
	want := []string{"Canada/Ada", "Canada/Ada", "Canada/Bob", "France/Eve"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("composite key order = %v", got)
	}
	rejects(t, `for $a in //author order by string($a/country), string($a/name) return $a`, "order by, a further key", ",")
	rejects(t, `for $a in //author order by string($a/name) descending return $a`, "descending", "descending")
	rejects(t, `for $a in //author order by string($a/name) ascending return $a`, "ascending", "ascending")
}

func TestOrderByEmptyKeyFirst(t *testing.T) {
	c := NewCollection()
	c.Add("d.xml", mustRecord(`<r><e><k>b</k></e><e/><e><k>a</k></e></r>`))
	got := strs(evalIn(t, c, `for $e in //e order by $e/k return count($e/k)`))
	if !reflect.DeepEqual(got, []string{"0", "1", "1"}) {
		t.Fatalf("empty keys should sort first: %v", got)
	}
}

// TestDeepAttributeStep: '//@' is not in the subset; an element step
// first reaches the same attributes.
func TestDeepAttributeStep(t *testing.T) {
	rejects(t, `count(//sec//@id)`, "//@", "@")
	got := strs(run(t, `count(//sec/@id)`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("//sec/@id = %v", got)
	}
}

// TestSelfAxis: no explicit axis but following-sibling:: is in the subset.
func TestSelfAxis(t *testing.T) {
	rejects(t, `count(//item/self::item)`, "self::", "self")
	rejects(t, `//catalog/child::item`, "child::", "child")
	rejects(t, `//catalog/descendant::name`, "descendant::", "descendant")
}

// numeric only spares ParseFloat the values it would reject anyway:
// whatever ParseFloat accepts must pass it. Dates and identifiers fail it.
func TestNumberStartNeverRejectsANumber(t *testing.T) {
	for _, s := range []string{
		"0", "12", "-1", "+7", ".5", "-.5e3", "1e3", "0x1p-2", "1_000", "inf", "Inf", "+INF", "-infinity",
		"nan", "NaN", "I1", "O12", "item", "north", "in", "n", "", "-", "e5", "x1",
		"1E+5", "1e-5", "0X1P+2", "0x_1p-0", "+.5e+0", "2001-05-17", "1-2", "4 5", "5.", "1e5x",
	} {
		_, err := strconv.ParseFloat(s, 64)
		if err == nil && !numeric(s) {
			t.Errorf("numeric(%q) = false, but ParseFloat accepts it", s)
		}
		got, ok := str(s).number()
		want, werr := strconv.ParseFloat(s, 64)
		if ok != (werr == nil) || ok && got != want && !(got != got && want != want) {
			t.Errorf("number of %q = %v, %v; ParseFloat gives %v, %v", s, got, ok, want, werr)
		}
	}
	for _, s := range []string{"2001-05-17", "O12", "north", "4 5"} {
		if numeric(s) {
			t.Errorf("numeric(%q) = true", s)
		}
	}
}
